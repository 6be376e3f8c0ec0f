#include "obs/flight.hpp"

#include <cstdlib>
#include <fstream>
#include <ostream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace tinysdr::obs {

namespace {
thread_local FlightRecorder* g_flight = nullptr;
}  // namespace

FlightRecorder* flight() { return g_flight; }

FlightSession::FlightSession(FlightRecorder& r) : previous_(g_flight) {
  g_flight = &r;
}

FlightSession::~FlightSession() { g_flight = previous_; }

const char* to_string(FlightLevel level) {
  switch (level) {
    case FlightLevel::kDebug:
      return "debug";
    case FlightLevel::kInfo:
      return "info";
    case FlightLevel::kWarn:
      return "warn";
    case FlightLevel::kError:
      return "error";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity) : ring_(capacity) {}

void FlightRecorder::record(FlightLevel level, const char* component,
                            std::string message,
                            std::vector<TraceArg> args) {
  FlightRecord r;
  r.ts_us = ring_.now_us();
  r.level = level;
  r.node = node_;
  r.component = component;
  r.message = std::move(message);
  r.args = std::move(args);
  ring_.push(std::move(r));
}

std::vector<FlightRecord> FlightRecorder::records() const {
  return ring_.items();
}

std::size_t FlightRecorder::count_at_least(FlightLevel level) const {
  std::size_t n = 0;
  ring_.for_each([&](const FlightRecord& r) {
    if (r.level >= level) ++n;
  });
  return n;
}

void FlightRecorder::write_json(std::ostream& out,
                                std::string_view reason) const {
  out << "{\"schema\":\"tinysdr-flight-v1\",\"reason\":"
      << json_quote(reason) << ",\"dropped\":" << ring_.dropped()
      << ",\"records\":[";
  bool first = true;
  ring_.for_each([&](const FlightRecord& r) {
    if (!first) out << ",";
    first = false;
    out << "{\"ts_us\":" << json_number(r.ts_us) << ",\"level\":"
        << json_quote(to_string(r.level)) << ",\"node\":" << r.node
        << ",\"component\":" << json_quote(r.component)
        << ",\"message\":" << json_quote(r.message);
    if (!r.args.empty()) {
      out << ",\"args\":";
      write_json_args(out, r.args);
    }
    out << "}";
  });
  out << "]}";
}

bool FlightRecorder::dump_to(const std::string& path,
                             std::string_view reason) const {
  std::ofstream out{path};
  if (!out) return false;
  write_json(out, reason);
  out << "\n";
  return static_cast<bool>(out);
}

void node_event(FlightLevel level, const char* component, const char* name,
                const char* counter, const char* arg_key, double arg) {
  Tracer* t = tracer();
  Registry* m = metrics();
  if (t == nullptr && g_flight == nullptr && m == nullptr) return;
  std::vector<TraceArg> args;
  if (arg_key != nullptr) args.push_back(TraceArg::num(arg_key, arg));
  if (t != nullptr) t->instant(component, name, args);
  if (g_flight != nullptr)
    g_flight->record(level, component, name, std::move(args));
  if (m != nullptr) m->counter(counter).add();
}

void set_time(Seconds t) {
  if (Tracer* tr = tracer()) tr->set_time(t);
  if (g_flight != nullptr) g_flight->set_time(t);
}

void set_node(std::uint16_t id) {
  if (Tracer* t = tracer()) {
    t->set_track(id);
    t->name_track(id, "node-" + std::to_string(id));
  }
  if (g_flight != nullptr) g_flight->set_node(id);
}

std::string dump_flight(std::string_view reason) {
  FlightRecorder* recorder = flight();
  if (recorder == nullptr) return {};
  std::string path = recorder->dump_path();
  if (path.empty()) {
    if (const char* env = std::getenv("TINYSDR_FLIGHT_DUMP");
        env != nullptr && *env != '\0')
      path = env;
  }
  if (path.empty()) return {};
  if (!recorder->dump_to(path, reason)) return {};
  return path;
}

}  // namespace tinysdr::obs
