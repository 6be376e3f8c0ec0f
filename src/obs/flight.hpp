// Flight recorder: a bounded, deterministic, sim-time-stamped structured
// log for post-mortem debugging of fleet campaigns. Where the Tracer
// answers "what happened when" as a Perfetto timeline, the flight
// recorder keeps the last N *noteworthy* events (level/node/component/
// message + key-value args) and is dumped as `tinysdr-flight-v1` JSON
// when a campaign ends in failure, a fault fires, or a deadline or
// cancellation trips — the black box you read after the crash.
//
// Same contracts as the Tracer (trace.hpp):
//   - Null sink by default: `flight()` is nullptr until a FlightSession
//     installs a recorder; every site guards on the pointer, so an
//     uninstrumented run pays one branch and stays bit-identical.
//   - Sim time, not wall clock, and the tracer's: engines stamp both
//     clocks with obs::set_time and campaigns shift both bases in
//     ItemShards::fold, so dumps are deterministic per seed.
//   - Bounded memory: fixed-capacity ring, drop-oldest with a count.
//   - Thread-sharded: parallel campaigns give each unit of work a shard
//     of the same capacity and absorb() the shards in node-index order
//     (obs::ItemShards), so the dump is byte-identical regardless of
//     thread count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"  // TraceArg: shared key/value attachment type

namespace tinysdr::obs {

enum class FlightLevel : std::uint8_t { kDebug, kInfo, kWarn, kError };

[[nodiscard]] const char* to_string(FlightLevel level);

/// One structured log record. `component` points at a static string
/// (like TraceEvent::category); `node` is the simulated node id the
/// record was made on behalf of (0 = campaign scope).
struct FlightRecord {
  double ts_us = 0.0;
  FlightLevel level = FlightLevel::kInfo;
  std::uint32_t node = 0;
  const char* component = "";
  std::string message;
  std::vector<TraceArg> args;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 12;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Append a shard's records (oldest first) with timestamps offset by
  /// this recorder's base and fold its dropped count in. The shard is
  /// untouched; this recorder's clock does not move.
  void absorb(const FlightRecorder& shard) { ring_.absorb(shard.ring_); }

  // ---------------------------------------------------------- sim clock
  /// The Tracer's clock: obs::set_time stamps both with the same sim time.
  void set_time(Seconds t) { ring_.set_time(t); }
  void shift_base(Seconds dt) { ring_.shift_base(dt); }

  // --------------------------------------------------------------- node
  /// Node id stamped on subsequent records (obs::set_node, which campaign
  /// shards call for the node they run).
  void set_node(std::uint32_t node) { node_ = node; }
  [[nodiscard]] std::uint32_t node() const { return node_; }

  // ---------------------------------------------------------- recording
  void record(FlightLevel level, const char* component, std::string message,
              std::vector<TraceArg> args = {});

  // -------------------------------------------------- inspection / dump
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  [[nodiscard]] std::size_t dropped() const { return ring_.dropped(); }
  /// Records oldest-first (a copy; the ring stays untouched).
  [[nodiscard]] std::vector<FlightRecord> records() const;
  /// Records at `level` or more severe — the auto-dump trigger test.
  [[nodiscard]] std::size_t count_at_least(FlightLevel level) const;

  /// `tinysdr-flight-v1` JSON: {"schema":...,"reason":...,"dropped":N,
  /// "records":[{"ts_us","level","node","component","message","args"}]}.
  /// Byte-deterministic for a fixed record sequence and reason.
  void write_json(std::ostream& out, std::string_view reason = "") const;
  /// Write the dump to a file; false if the file cannot be opened.
  bool dump_to(const std::string& path, std::string_view reason = "") const;

  /// Where automatic failure dumps go. Unset (empty) means campaigns
  /// fall back to the TINYSDR_FLIGHT_DUMP environment variable, and dump
  /// nowhere if that is empty too.
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }
  [[nodiscard]] const std::string& dump_path() const { return dump_path_; }

 private:
  EventRing<FlightRecord> ring_;
  std::uint32_t node_ = 0;
  std::string dump_path_;
};

/// The calling thread's installed flight recorder, or nullptr (the null
/// sink). Instrumented code must guard on this before building any
/// record arguments.
[[nodiscard]] FlightRecorder* flight();

/// RAII installation, nesting like TraceSession: worker threads install
/// per-shard recorders without disturbing the caller's.
class FlightSession {
 public:
  explicit FlightSession(FlightRecorder& r);
  ~FlightSession();
  FlightSession(const FlightSession&) = delete;
  FlightSession& operator=(const FlightSession&) = delete;

 private:
  FlightRecorder* previous_;
};

// --------------------------------------------------- every sink at once
// The calls an engine makes for one simulated node. Each reaches every
// sink the calling thread has installed, so no site fans out by hand.

/// One node event: a tracer instant and a flight record at `level`, both
/// `component`/`name` with the numeric arg `arg_key` = `arg` when
/// `arg_key` is set, and one count on the counter `counter`. With no sink
/// installed it returns after one test and allocates nothing.
void node_event(FlightLevel level, const char* component, const char* name,
                const char* counter, const char* arg_key = nullptr,
                double arg = 0.0);

/// Engine-relative sim time on the tracer and the flight recorder.
void set_time(Seconds t);

/// The node subsequent events belong to: the tracer's track (named
/// "node-<id>") and the flight recorder's node id.
void set_node(std::uint16_t id);

/// Post-mortem hook: dump the calling thread's recorder to its configured
/// dump path (falling back to $TINYSDR_FLIGHT_DUMP). Returns the path
/// written, or empty when no recorder is installed, no path is
/// configured, or the write failed. Campaign engines call this when a
/// run ends in failure, a fault fired, or a deadline/cancellation
/// tripped.
std::string dump_flight(std::string_view reason);

}  // namespace tinysdr::obs
