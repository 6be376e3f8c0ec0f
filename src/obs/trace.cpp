#include "obs/trace.hpp"

#include <limits>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace tinysdr::obs {

namespace {
thread_local Tracer* g_tracer = nullptr;
}  // namespace

Tracer* tracer() { return g_tracer; }

TraceSession::TraceSession(Tracer& t) : previous_(g_tracer) { g_tracer = &t; }

TraceSession::~TraceSession() { g_tracer = previous_; }

Tracer::Tracer(std::size_t capacity) : ring_(capacity) {}

Tracer Tracer::unbounded() {
  return Tracer{std::numeric_limits<std::size_t>::max()};
}

void Tracer::absorb(const Tracer& shard) {
  for (const auto& [track, name] : shard.track_names_)
    track_names_[track] = name;
  ring_.absorb(shard.ring_);
}

void Tracer::name_track(std::uint32_t track, std::string name) {
  track_names_[track] = std::move(name);
}

TraceEvent Tracer::event(char phase, const char* category,
                         std::string name) const {
  TraceEvent e;
  e.ts_us = ring_.now_us();
  e.phase = phase;
  e.track = track_;
  e.category = category;
  e.name = std::move(name);
  return e;
}

void Tracer::instant(const char* category, std::string name,
                     std::vector<TraceArg> args) {
  TraceEvent e = event('i', category, std::move(name));
  e.args = std::move(args);
  ring_.push(std::move(e));
}

void Tracer::complete(const char* category, std::string name, Seconds start,
                      Seconds duration, std::vector<TraceArg> args) {
  TraceEvent e = event('X', category, std::move(name));
  e.ts_us = start.microseconds();
  e.dur_us = duration.microseconds();
  e.args = std::move(args);
  ring_.push(std::move(e));
}

void Tracer::flow(char phase, const char* category, std::string name,
                  std::uint64_t id) {
  TraceEvent e = event(phase, category, std::move(name));
  e.flow_id = id;
  ring_.push(std::move(e));
}

void Tracer::flow_begin(const char* category, std::string name,
                        std::uint64_t id) {
  flow('s', category, std::move(name), id);
}

void Tracer::flow_step(const char* category, std::string name,
                       std::uint64_t id) {
  flow('t', category, std::move(name), id);
}

void Tracer::flow_end(const char* category, std::string name,
                      std::uint64_t id) {
  flow('f', category, std::move(name), id);
}

void Tracer::counter(const char* category, std::string name, double value) {
  TraceEvent e = event('C', category, std::move(name));
  e.args.push_back(TraceArg::num("value", value));
  ring_.push(std::move(e));
}

std::size_t Tracer::count_category(std::string_view category) const {
  std::size_t n = 0;
  ring_.for_each([&](const TraceEvent& e) {
    if (category == e.category) ++n;
  });
  return n;
}

namespace {

/// Flow ids export as hex strings: uint64 ids are not exactly
/// representable as JSON numbers past 2^53.
std::string flow_id_hex(std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out{"0x"};
  bool leading = true;
  for (int shift = 60; shift >= 0; shift -= 4) {
    unsigned nibble = static_cast<unsigned>((id >> shift) & 0xF);
    if (leading && nibble == 0 && shift != 0) continue;
    leading = false;
    out.push_back(kDigits[nibble]);
  }
  return out;
}

}  // namespace

void write_json_args(std::ostream& out, const std::vector<TraceArg>& args) {
  out << "{";
  bool first = true;
  for (const auto& a : args) {
    if (!first) out << ",";
    first = false;
    out << json_quote(a.key) << ":";
    if (a.is_string) out << json_quote(a.text);
    else out << json_number(a.number);
  }
  out << "}";
}

void Tracer::write_chrome_json(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [track, name] : track_names_) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << track
        << ",\"name\":\"thread_name\",\"args\":{\"name\":"
        << json_quote(name) << "}}";
  }
  ring_.for_each([&](const TraceEvent& e) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"" << e.phase << "\",\"pid\":0,\"tid\":" << e.track
        << ",\"ts\":" << json_number(e.ts_us);
    if (e.phase == 'X') out << ",\"dur\":" << json_number(e.dur_us);
    // Instants render at thread scope so they show on the node's row.
    if (e.phase == 'i') out << ",\"s\":\"t\"";
    if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
      out << ",\"id\":\"" << flow_id_hex(e.flow_id) << "\"";
      // Bind the flow end to the enclosing slice, not the next one.
      if (e.phase == 'f') out << ",\"bp\":\"e\"";
    }
    out << ",\"cat\":" << json_quote(e.category)
        << ",\"name\":" << json_quote(e.name);
    if (!e.args.empty()) {
      out << ",\"args\":";
      write_json_args(out, e.args);
    }
    out << "}";
  });
  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
      << ring_.dropped() << "}}";
}

std::string Tracer::chrome_json() const {
  std::ostringstream oss;
  write_chrome_json(oss);
  return oss.str();
}

}  // namespace tinysdr::obs
