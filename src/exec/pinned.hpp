// run_pinned: one dedicated worker per task, for tasks that block on each
// other's progress.
//
// parallel_for's contract is throughput over an index space — items may be
// time-sliced, reordered, or run inline — which is exactly wrong for a set
// of long-lived cooperating loops (the flowgraph's per-block schedulers
// parking on ring credit). run_pinned guarantees each task its own thread
// for its whole lifetime, so a task may legitimately block until another
// task makes progress.
#pragma once

#include <cstddef>
#include <functional>

namespace tinysdr::exec {

/// Run task(0) ... task(count-1) concurrently, each pinned to its own
/// worker; the calling thread runs one of them. Blocks until every task
/// returns, then rethrows the first task exception.
///
/// CAUTION for blocking tasks: a task that throws aborts the region, and
/// tasks not yet started are skipped — a peer blocked on a skipped task's
/// progress would then never return. Tasks that park on each other must
/// catch their own failures and unblock their peers cooperatively (the
/// flow scheduler catches everything and poisons its rings) so every task
/// returns; the exception still propagates from here afterwards.
///
/// Uses the shared WorkerPool with threads = count when that yields a
/// dedicated thread per task: a participant claims its next task only
/// after its current one returned. Falls back to dedicated jthreads when
/// called from inside a pool region (nested pool regions run inline —
/// fatal for blocking tasks) or when count exceeds the pool's thread
/// clamp.
void run_pinned(std::size_t count,
                const std::function<void(std::size_t)>& task);

}  // namespace tinysdr::exec
