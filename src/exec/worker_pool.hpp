// Fixed-size worker pool over an index space.
//
// One pool of std::jthread workers serves every parallel region in the
// process (campaign passes, benches, tests), growing lazily to the
// largest thread count ever requested and parking between regions. A
// region (`run`) shares one atomic cursor among its participants: each
// checks cancellation and the deadline, claims the next index with
// fetch_add(1), runs it, and repeats until the cursor passes n. Every
// index therefore runs exactly once, and a participant claims its next
// item only after its current one returned.
//
// Determinism contract: the pool guarantees each index runs exactly once
// and that all body side effects are visible to the caller when run()
// returns. It deliberately guarantees NOTHING about execution order —
// callers that need deterministic output must make per-index work
// self-contained (exec::stream_seed per index, per-index result slots)
// and do any order-sensitive reduction themselves afterwards.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/policy.hpp"

namespace tinysdr::exec {

/// True while the calling thread is executing inside a WorkerPool region
/// body. Nested regions degrade to inline serial execution on the calling
/// thread, so primitives that need real concurrency (exec::run_pinned and
/// the flowgraph's threaded scheduler built on it) check this to fall back
/// to dedicated threads instead.
[[nodiscard]] bool in_parallel_region();

class WorkerPool {
 public:
  /// Body of a parallel region: body(index) for each index in [0, n).
  using Body = std::function<void(std::size_t)>;

  WorkerPool() = default;
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run body over [0, n) under the given policy. Blocks until every
  /// participant has drained; rethrows the first body exception. The
  /// calling thread is one of the participants. Reentrant calls (from
  /// inside a body) degrade to inline serial execution on the calling
  /// thread.
  RunStatus run(std::size_t n, const ExecPolicy& policy, const Body& body);

  /// Spawned worker threads so far (grows on demand, never shrinks).
  [[nodiscard]] std::size_t spawned_workers() const;

  /// Process-wide pool shared by parallel_for and the campaigns.
  [[nodiscard]] static WorkerPool& shared();

 private:
  struct Job;

  void ensure_workers(std::size_t count);
  void worker_main(std::stop_token stop, std::size_t index);
  static void work(Job& job, std::size_t participant);
  static bool should_stop(Job& job);

  mutable std::mutex mu_;
  std::condition_variable_any job_cv_;   ///< workers park here
  std::condition_variable done_cv_;      ///< run() waits here
  std::vector<std::jthread> workers_;
  Job* job_ = nullptr;                   ///< region being executed, if any
  std::uint64_t epoch_ = 0;              ///< bumps once per region
};

}  // namespace tinysdr::exec
