#include "obs/flight.hpp"

#include <cstdlib>
#include <fstream>
#include <ostream>

#include "obs/json.hpp"

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

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

FlightRecorder FlightRecorder::unbounded() {
  FlightRecorder r{1};
  r.ring_.clear();
  r.unbounded_ = true;
  return r;
}

void FlightRecorder::absorb(const FlightRecorder& shard) {
  if (shard.count_ > 0) {
    std::size_t start = (shard.next_ + shard.ring_.size() - shard.count_) %
                        shard.ring_.size();
    for (std::size_t i = 0; i < shard.count_; ++i) {
      FlightRecord r = shard.ring_[(start + i) % shard.ring_.size()];
      r.ts_us += base_us_;
      push(std::move(r));
    }
  }
  dropped_ += shard.dropped_;
}

void FlightRecorder::set_time(Seconds t) { now_us_ = t.microseconds(); }

void FlightRecorder::shift_base(Seconds dt) {
  base_us_ += dt.microseconds();
  now_us_ = 0.0;
}

void FlightRecorder::push(FlightRecord record) {
  if (unbounded_) {
    ring_.push_back(std::move(record));
    ++count_;
    next_ = 0;  // keeps the oldest-first recovery arithmetic valid
    return;
  }
  if (count_ == ring_.size()) ++dropped_;
  else ++count_;
  ring_[next_] = std::move(record);
  next_ = (next_ + 1) % ring_.size();
}

void FlightRecorder::record(FlightLevel level, const char* component,
                            std::string message,
                            std::vector<TraceArg> args) {
  FlightRecord r;
  r.ts_us = base_us_ + now_us_;
  r.level = level;
  r.node = node_;
  r.component = component;
  r.message = std::move(message);
  r.args = std::move(args);
  push(std::move(r));
}

std::vector<FlightRecord> FlightRecorder::records() const {
  std::vector<FlightRecord> out;
  if (count_ == 0) return out;
  out.reserve(count_);
  std::size_t start = (next_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

std::size_t FlightRecorder::count_at_least(FlightLevel level) const {
  std::size_t n = 0;
  std::size_t start =
      count_ == 0 ? 0 : (next_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i)
    if (ring_[(start + i) % ring_.size()].level >= level) ++n;
  return n;
}

void FlightRecorder::write_json(std::ostream& out,
                                std::string_view reason) const {
  out << "{\"schema\":\"tinysdr-flight-v1\",\"reason\":"
      << json_quote(reason) << ",\"dropped\":" << dropped_
      << ",\"records\":[";
  std::size_t start =
      count_ == 0 ? 0 : (next_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i) {
    const FlightRecord& r = ring_[(start + i) % ring_.size()];
    if (i > 0) out << ",";
    out << "{\"ts_us\":" << json_number(r.ts_us) << ",\"level\":"
        << json_quote(to_string(r.level)) << ",\"node\":" << r.node
        << ",\"component\":" << json_quote(r.component)
        << ",\"message\":" << json_quote(r.message);
    if (!r.args.empty()) {
      out << ",\"args\":{";
      for (std::size_t a = 0; a < r.args.size(); ++a) {
        if (a > 0) out << ",";
        out << json_quote(r.args[a].key) << ":";
        if (r.args[a].is_string) out << json_quote(r.args[a].text);
        else out << json_number(r.args[a].number);
      }
      out << "}";
    }
    out << "}";
  }
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
