// Wall-clock observability for the worker pool: an opt-in, process-wide
// trace sink that records every parallel_for region and every claimed
// item as Perfetto spans — region on track 0, one track per
// participant — with flow arrows (Tracer::flow_*) linking each item
// back to the region that dispatched it. Load the export next to a
// campaign trace and a single view answers "which worker ran node 37's
// update, and what else was that worker doing".
//
// This sink is deliberately OUTSIDE the determinism contract: it records
// wall-clock time and which worker claimed which item, which vary run to
// run. Campaign
// telemetry (per-node shard tracers merged in node order) stays
// byte-identical whether or not a pool trace session is active; the
// byte-identity tests never install one. The sink is mutex-guarded and
// shared by every worker; the null-sink rule still holds — without a
// session the pool pays one relaxed atomic load per region.
#pragma once

#include <cstdint>

#include "obs/trace.hpp"

namespace tinysdr::exec {

/// RAII installation of a process-wide pool trace sink. Nests; the
/// destructor restores the previously installed sink. The Tracer is
/// driven in wall-clock microseconds since session start (its sim-time
/// clock API is not used).
class PoolTraceSession {
 public:
  explicit PoolTraceSession(obs::Tracer& sink);
  ~PoolTraceSession();
  PoolTraceSession(const PoolTraceSession&) = delete;
  PoolTraceSession& operator=(const PoolTraceSession&) = delete;

 private:
  obs::Tracer* previous_;
};

namespace pool_trace {

/// Deterministic flow id for region `region_id` (splitmix64-mixed so ids
/// spread over the 64-bit space and do not collide with OTA chunk flows).
[[nodiscard]] std::uint64_t region_flow_id(std::uint64_t region_id);

/// True while a PoolTraceSession is installed (one relaxed load).
[[nodiscard]] bool active();

/// Wall-clock microseconds since the current session started.
[[nodiscard]] double now_us();

/// Next region id (process-wide, monotonic).
[[nodiscard]] std::uint64_t next_region_id();

/// Record one claimed item `index` executed by `participant` between
/// wall timestamps [start_us, end_us], flow-linked to region `region_id`.
/// The span is named "chunk" and lands on the participant's own track.
void chunk(std::uint64_t region_id, std::size_t index,
           std::size_t participant, double start_us, double end_us);

/// Record a whole parallel region: n items over `participants` workers
/// between [start_us, end_us].
void region(std::uint64_t region_id, std::size_t n, std::size_t participants,
            double start_us, double end_us);

}  // namespace pool_trace

}  // namespace tinysdr::exec
