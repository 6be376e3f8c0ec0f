// ParallelFor: the one-call front door to the worker pool.
//
//   auto status = exec::parallel_for(nodes.size(), policy,
//                                    [&](std::size_t i) {
//                                      results[i] = run_node(i);
//                                    });
//
// Body requirements for deterministic campaigns: write only to per-index
// state (results[i], shards[i]), derive randomness from
// exec::stream_seed(base, i), and never read another index's output.
// Under those rules the result is independent of thread count and of
// which worker claims which index.
#pragma once

#include "exec/policy.hpp"
#include "exec/worker_pool.hpp"

namespace tinysdr::exec {

/// Run body(index) over [0, n) on the shared pool. Blocks;
/// rethrows the first body exception; returns how the region ended.
inline RunStatus parallel_for(std::size_t n, const ExecPolicy& policy,
                              const WorkerPool::Body& body) {
  return WorkerPool::shared().run(n, policy, body);
}

}  // namespace tinysdr::exec
