// Sim-time event tracer: a low-overhead, ring-buffered recorder of
// timestamped structured events, exportable as Chrome/Perfetto
// `trace_event` JSON so an entire OTA campaign (ANNOUNCE -> READY -> DATA
// windows -> SACK -> reprogram, interleaved with radio deliveries, power
// transitions and injected faults) renders as a visual timeline at
// https://ui.perfetto.dev.
//
// Design rules:
//   - Null sink by default. `tracer()` returns nullptr until a
//     TraceSession installs one, and every instrumentation site guards on
//     that pointer, so an untraced run does no work beyond one branch and
//     is bit-identical to an uninstrumented build.
//   - Sim time, not wall clock. The simulation engines stamp the tracer's
//     clock (`set_time`) as they account simulated time; events inherit
//     that clock, so traces are deterministic for a fixed seed.
//   - Bounded memory. Events live in a fixed-capacity ring; overflow
//     drops the oldest events and counts them (`dropped()`).
//   - Thread-sharded, not thread-shared. The current-tracer pointer is
//     thread_local: each thread traces into its own sink (a Tracer is
//     still single-threaded). Parallel drivers give every unit of work a
//     shard tracer of the same capacity and absorb() the shards in index
//     order (obs::ItemShards), so the exported JSON is byte-identical
//     regardless of thread count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "obs/ring.hpp"

namespace tinysdr::obs {

/// One key/value attachment on an event. Values are numbers or strings.
struct TraceArg {
  std::string key;
  bool is_string = false;
  double number = 0.0;
  std::string text;

  [[nodiscard]] static TraceArg num(std::string key, double value) {
    TraceArg a;
    a.key = std::move(key);
    a.number = value;
    return a;
  }
  [[nodiscard]] static TraceArg str(std::string key, std::string value) {
    TraceArg a;
    a.key = std::move(key);
    a.is_string = true;
    a.text = std::move(value);
    return a;
  }
};

/// Write `args` as one JSON object: {"key":value,...}.
void write_json_args(std::ostream& out, const std::vector<TraceArg>& args);

/// A recorded event, in Chrome trace_event terms: phase 'X' = complete
/// span, 'i' = instant, 'C' = counter sample, 's'/'t'/'f' = flow
/// begin/step/end (causal arrows between spans, possibly on different
/// tracks). `track` maps to the tid, so each simulated node renders as
/// its own row; `flow_id` binds the legs of one flow together.
struct TraceEvent {
  double ts_us = 0.0;
  double dur_us = 0.0;
  char phase = 'i';
  std::uint32_t track = 0;
  std::uint64_t flow_id = 0;  ///< 's'/'t'/'f' phases only
  const char* category = "";
  std::string name;
  std::vector<TraceArg> args;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// A tracer that never drops: it grows on demand.
  [[nodiscard]] static Tracer unbounded();

  /// Append a shard's events (oldest first) with their timestamps offset
  /// by this tracer's current base, merge its track names, and fold its
  /// dropped count in. The shard is left untouched; this tracer's clock
  /// and current track do not move (campaigns follow up with shift_base).
  void absorb(const Tracer& shard);

  // ------------------------------------------------------------ sim clock
  /// Current absolute sim time (base + engine-relative time).
  [[nodiscard]] Seconds now() const {
    return Seconds::from_microseconds(ring_.now_us());
  }
  /// Engine-relative clock: now = base + t. Engines call this as they
  /// account simulated time.
  void set_time(Seconds t) { ring_.set_time(t); }
  /// Lay consecutive timelines end to end (e.g. sequential per-node
  /// updates in a campaign): base += dt, and the relative clock restarts.
  void shift_base(Seconds dt) { ring_.shift_base(dt); }

  // -------------------------------------------------- track (Perfetto tid)
  void set_track(std::uint32_t track) { track_ = track; }
  [[nodiscard]] std::uint32_t track() const { return track_; }
  /// Human name for a track, exported as thread_name metadata.
  void name_track(std::uint32_t track, std::string name);

  // ------------------------------------------------------------ recording
  void instant(const char* category, std::string name,
               std::vector<TraceArg> args = {});
  /// Complete span; `start` is absolute sim time (as returned by now()).
  void complete(const char* category, std::string name, Seconds start,
                Seconds duration, std::vector<TraceArg> args = {});
  /// Counter sample (renders as a value track in Perfetto).
  void counter(const char* category, std::string name, double value);

  // -------------------------------------------------------- causal flows
  // Flow events draw arrows between spans — an OTA chunk's first TX, its
  // retransmissions and the ACK that finally covers it, across node
  // tracks. All legs of one flow share `id` (derive it deterministically,
  // e.g. from the link seed + chunk seq, so exports stay byte-identical).
  // Each leg binds to the enclosing/nearest span on its track at the
  // current sim time.
  void flow_begin(const char* category, std::string name, std::uint64_t id);
  void flow_step(const char* category, std::string name, std::uint64_t id);
  void flow_end(const char* category, std::string name, std::uint64_t id);

  // --------------------------------------------------- inspection / export
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  [[nodiscard]] std::size_t dropped() const { return ring_.dropped(); }
  /// Events oldest-first (a copy; the ring stays untouched).
  [[nodiscard]] std::vector<TraceEvent> events() const {
    return ring_.items();
  }
  /// Number of recorded events in a category.
  [[nodiscard]] std::size_t count_category(std::string_view category) const;

  /// Chrome trace_event JSON ("traceEvents" array + thread-name
  /// metadata); byte-deterministic for a fixed event sequence.
  void write_chrome_json(std::ostream& out) const;
  [[nodiscard]] std::string chrome_json() const;

 private:
  /// An event of `phase` stamped with the current time and track.
  [[nodiscard]] TraceEvent event(char phase, const char* category,
                                 std::string name) const;
  void flow(char phase, const char* category, std::string name,
            std::uint64_t id);

  EventRing<TraceEvent> ring_;
  std::uint32_t track_ = 0;
  std::map<std::uint32_t, std::string> track_names_;
};

/// The calling thread's installed tracer, or nullptr (the null sink).
/// Instrumented code must guard on this before building any event
/// arguments.
[[nodiscard]] Tracer* tracer();

/// RAII installation of a tracer as the calling thread's sink. Nests;
/// the destructor restores the previously installed tracer. Worker
/// threads install per-shard sessions without disturbing the caller's.
class TraceSession {
 public:
  explicit TraceSession(Tracer& t);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  Tracer* previous_;
};

/// RAII span: remembers the tracer clock at construction and emits a
/// complete event at destruction. No-op when no tracer is installed.
class TraceSpan {
 public:
  TraceSpan(const char* category, std::string name)
      : tracer_(tracer()), category_(category), name_(std::move(name)) {
    if (tracer_ != nullptr) start_ = tracer_->now();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->complete(category_, std::move(name_), start_,
                        tracer_->now() - start_, std::move(args_));
    }
  }

  void arg(std::string key, double value) {
    if (tracer_ != nullptr)
      args_.push_back(TraceArg::num(std::move(key), value));
  }
  void arg(std::string key, std::string value) {
    if (tracer_ != nullptr)
      args_.push_back(TraceArg::str(std::move(key), std::move(value)));
  }

 private:
  Tracer* tracer_;
  const char* category_;
  std::string name_;
  Seconds start_{0.0};
  std::vector<TraceArg> args_;
};

}  // namespace tinysdr::obs
