#include "obs/trace.hpp"

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

Tracer::Tracer(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

Tracer Tracer::unbounded() {
  Tracer t{1};
  t.ring_.clear();
  t.unbounded_ = true;
  return t;
}

void Tracer::absorb(const Tracer& shard) {
  for (const auto& [track, name] : shard.track_names_)
    track_names_[track] = name;
  if (shard.count_ > 0) {
    std::size_t start = (shard.next_ + shard.ring_.size() - shard.count_) %
                        shard.ring_.size();
    for (std::size_t i = 0; i < shard.count_; ++i) {
      TraceEvent e = shard.ring_[(start + i) % shard.ring_.size()];
      e.ts_us += base_us_;
      push(std::move(e));
    }
  }
  dropped_ += shard.dropped_;
}

Seconds Tracer::now() const {
  return Seconds::from_microseconds(base_us_ + now_us_);
}

void Tracer::set_time(Seconds t) { now_us_ = t.microseconds(); }

void Tracer::shift_base(Seconds dt) {
  base_us_ += dt.microseconds();
  now_us_ = 0.0;
}

void Tracer::name_track(std::uint32_t track, std::string name) {
  track_names_[track] = std::move(name);
}

void Tracer::push(TraceEvent event) {
  if (unbounded_) {
    ring_.push_back(std::move(event));
    ++count_;
    next_ = 0;  // keeps the oldest-first recovery arithmetic valid
    return;
  }
  if (count_ == ring_.size()) ++dropped_;
  else ++count_;
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % ring_.size();
}

void Tracer::instant(const char* category, std::string name,
                     std::vector<TraceArg> args) {
  TraceEvent e;
  e.ts_us = base_us_ + now_us_;
  e.phase = 'i';
  e.track = track_;
  e.category = category;
  e.name = std::move(name);
  e.args = std::move(args);
  push(std::move(e));
}

void Tracer::complete(const char* category, std::string name, Seconds start,
                      Seconds duration, std::vector<TraceArg> args) {
  TraceEvent e;
  e.ts_us = start.microseconds();
  e.dur_us = duration.microseconds();
  e.phase = 'X';
  e.track = track_;
  e.category = category;
  e.name = std::move(name);
  e.args = std::move(args);
  push(std::move(e));
}

void Tracer::flow_begin(const char* category, std::string name,
                        std::uint64_t id) {
  TraceEvent e;
  e.ts_us = base_us_ + now_us_;
  e.phase = 's';
  e.track = track_;
  e.flow_id = id;
  e.category = category;
  e.name = std::move(name);
  push(std::move(e));
}

void Tracer::flow_step(const char* category, std::string name,
                       std::uint64_t id) {
  TraceEvent e;
  e.ts_us = base_us_ + now_us_;
  e.phase = 't';
  e.track = track_;
  e.flow_id = id;
  e.category = category;
  e.name = std::move(name);
  push(std::move(e));
}

void Tracer::flow_end(const char* category, std::string name,
                      std::uint64_t id) {
  TraceEvent e;
  e.ts_us = base_us_ + now_us_;
  e.phase = 'f';
  e.track = track_;
  e.flow_id = id;
  e.category = category;
  e.name = std::move(name);
  push(std::move(e));
}

void Tracer::counter(const char* category, std::string name, double value) {
  TraceEvent e;
  e.ts_us = base_us_ + now_us_;
  e.phase = 'C';
  e.track = track_;
  e.category = category;
  e.name = std::move(name);
  e.args.push_back(TraceArg::num("value", value));
  push(std::move(e));
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  if (count_ == 0) return out;
  out.reserve(count_);
  std::size_t start = (next_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

std::size_t Tracer::count_category(std::string_view category) const {
  if (count_ == 0) return 0;
  std::size_t n = 0;
  std::size_t start = (next_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i)
    if (category == ring_[(start + i) % ring_.size()].category) ++n;
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

void write_args(std::ostream& out, const std::vector<TraceArg>& args) {
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

}  // namespace

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
  std::size_t start =
      count_ == 0 ? 0 : (next_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i) {
    const TraceEvent& e = ring_[(start + i) % ring_.size()];
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
      write_args(out, e.args);
    }
    out << "}";
  }
  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
      << dropped_ << "}}";
}

std::string Tracer::chrome_json() const {
  std::ostringstream oss;
  write_chrome_json(oss);
  return oss.str();
}

}  // namespace tinysdr::obs
