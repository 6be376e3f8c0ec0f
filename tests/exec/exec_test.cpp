#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/parallel_for.hpp"
#include "exec/pinned.hpp"
#include "exec/seed.hpp"
#include "exec/worker_pool.hpp"

namespace tinysdr::exec {
namespace {

// ------------------------------------------------------------ seed streams

TEST(SeedStreams, SplitMix64MatchesReferenceVector) {
  // Published test vector for the SplitMix64 finalizer (seed 0 sequence).
  EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(1), 0x910A2DEC89025CC1ULL);
}

TEST(SeedStreams, StreamSeedsArePinned) {
  // Frozen derivation: these exact values are part of the reproducibility
  // contract — campaigns recorded with one build must replay on another.
  const std::uint64_t base = 0x0123456789ABCDEFULL;
  EXPECT_EQ(stream_seed(base, 0), 0x157A3807A48FAA9DULL);
  EXPECT_EQ(stream_seed(base, 1), 0xD573529B34A1D093ULL);
  EXPECT_EQ(stream_seed(base, 2), 0x2F90B72E996DCCBEULL);
  EXPECT_EQ(stream_seed(base, 3), 0xA2D419334C4667ECULL);
}

TEST(SeedStreams, StreamSeedIsPureAndOrderFree) {
  const std::uint64_t base = 42;
  // Derive out of order, repeatedly: same answers.
  const std::uint64_t s7 = stream_seed(base, 7);
  const std::uint64_t s0 = stream_seed(base, 0);
  EXPECT_EQ(stream_seed(base, 7), s7);
  EXPECT_EQ(stream_seed(base, 0), s0);
  EXPECT_NE(s0, s7);
}

TEST(SeedStreams, NeighbouringStreamsDecorrelate) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(stream_seed(99, i));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(SeedStreams, DrawBaseSeedConsumesTwoDraws) {
  Rng a{123, 456};
  Rng b{123, 456};
  const std::uint64_t hi = b.next_u32();
  const std::uint64_t lo = b.next_u32();
  EXPECT_EQ(draw_base_seed(a), (hi << 32) | lo);
}

TEST(SeedStreams, StreamRngsAreIndependentOfEachOther) {
  Rng r0 = stream_rng(7, 0);
  Rng r1 = stream_rng(7, 1);
  EXPECT_NE(r0.next_u32(), r1.next_u32());
  // Re-deriving stream 0 replays it exactly.
  Rng r0b = stream_rng(7, 0);
  Rng r0c = stream_rng(7, 0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(r0b.next_u32(), r0c.next_u32());
}

// ------------------------------------------------------------ parallel_for

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    auto status = parallel_for(n, ExecPolicy::with_threads(threads),
                               [&](std::size_t i) { hits[i].fetch_add(1); });
    EXPECT_TRUE(status.complete());
    EXPECT_EQ(status.items_completed, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelFor, ZeroItemsCompletesImmediately) {
  bool ran = false;
  auto status = parallel_for(0, ExecPolicy::with_threads(8),
                             [&](std::size_t) { ran = true; });
  EXPECT_TRUE(status.complete());
  EXPECT_EQ(status.items_completed, 0u);
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SingleItemRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  auto status = parallel_for(1, ExecPolicy::with_threads(8),
                             [&](std::size_t i) {
                               EXPECT_EQ(i, 0u);
                               ran_on = std::this_thread::get_id();
                             });
  EXPECT_TRUE(status.complete());
  EXPECT_EQ(status.items_completed, 1u);
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelFor, MoreThreadsThanItems) {
  const std::size_t n = 3;
  std::vector<std::atomic<int>> hits(n);
  auto status = parallel_for(n, ExecPolicy::with_threads(16),
                             [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_TRUE(status.complete());
  EXPECT_EQ(status.items_completed, n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, NestedRegionsDegradeToInlineSerial) {
  std::atomic<int> total{0};
  auto status = parallel_for(4, ExecPolicy::with_threads(4), [&](std::size_t) {
    // A nested region must not deadlock or respawn the pool; it runs
    // inline on the worker that entered it.
    const std::thread::id outer = std::this_thread::get_id();
    auto inner = parallel_for(8, ExecPolicy::with_threads(4),
                              [&](std::size_t) {
                                EXPECT_EQ(std::this_thread::get_id(), outer);
                                total.fetch_add(1);
                              });
    EXPECT_TRUE(inner.complete());
  });
  EXPECT_TRUE(status.complete());
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      {
        (void)parallel_for(100, ExecPolicy::with_threads(4),
                           [&](std::size_t i) {
                             if (i == 57) throw std::runtime_error("boom");
                           });
      },
      std::runtime_error);
}

TEST(ParallelFor, PreCancelledTokenRunsNothing) {
  CancellationSource source;
  source.cancel();
  ExecPolicy p = ExecPolicy::with_threads(4);
  p.cancel = source.token();
  std::atomic<int> ran{0};
  auto status = parallel_for(64, p, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(status.outcome, RunOutcome::kCancelled);
  EXPECT_FALSE(status.complete());
  EXPECT_EQ(status.items_completed, 0u);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelFor, MidRunCancellationStopsNewItems) {
  CancellationSource source;
  ExecPolicy p = ExecPolicy::serial();  // deterministic item order
  p.cancel = source.token();
  std::size_t ran = 0;
  auto status = parallel_for(100, p, [&](std::size_t) {
    ++ran;
    if (ran == 10) source.cancel();
  });
  EXPECT_EQ(status.outcome, RunOutcome::kCancelled);
  // Cancellation is cooperative: the in-flight item finished, nothing
  // after it started.
  EXPECT_EQ(ran, 10u);
  EXPECT_EQ(status.items_completed, 10u);
}

TEST(ParallelFor, ExpiredDeadlineStopsTheRegion) {
  ExecPolicy p = ExecPolicy::serial();
  p.deadline = Seconds{0.0};  // already expired when the region starts
  std::size_t ran = 0;
  auto status = parallel_for(100, p, [&](std::size_t) { ++ran; });
  EXPECT_EQ(status.outcome, RunOutcome::kDeadlineExceeded);
  EXPECT_FALSE(status.complete());
  EXPECT_EQ(ran, status.items_completed);
  EXPECT_LT(status.items_completed, 100u);
}

TEST(ParallelFor, GenerousDeadlineCompletes) {
  ExecPolicy p = ExecPolicy::with_threads(2);
  p.deadline = Seconds{3600.0};
  auto status = parallel_for(64, p, [](std::size_t) {});
  EXPECT_TRUE(status.complete());
  EXPECT_EQ(status.items_completed, 64u);
}

// ------------------------------------------------------------ WorkerPool

TEST(WorkerPool, SerialPolicySpawnsNoWorkers) {
  WorkerPool pool;
  std::size_t sum = 0;
  auto status =
      pool.run(100, ExecPolicy::serial(), [&](std::size_t i) { sum += i; });
  EXPECT_TRUE(status.complete());
  EXPECT_EQ(sum, 4950u);
  EXPECT_EQ(pool.spawned_workers(), 0u);
}

TEST(WorkerPool, ReusedAcrossRegions) {
  WorkerPool pool;
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    auto status = pool.run(1000, ExecPolicy::with_threads(4),
                           [&](std::size_t i) {
                             sum.fetch_add(i, std::memory_order_relaxed);
                           });
    EXPECT_TRUE(status.complete());
    EXPECT_EQ(sum.load(), 499500u);
  }
  // Workers persist between regions; the pool never shrinks mid-life.
  EXPECT_LE(pool.spawned_workers(), 3u);
}

TEST(WorkerPool, HonoursThreadCountsAboveHardwareConcurrency) {
  // The pool provisions requested threads even on small machines (tests
  // pin 8-way runs on single-core CI containers).
  WorkerPool pool;
  std::mutex mu;
  std::set<std::thread::id> threads;
  auto status =
      pool.run(512, ExecPolicy::with_threads(8), [&](std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      });
  EXPECT_TRUE(status.complete());
  EXPECT_LE(threads.size(), 8u);
  // The caller is one of the 8 participants; the other 7 are spawned.
  EXPECT_EQ(pool.spawned_workers(), 7u);
}

// ------------------------------------------------------------ run_pinned

/// Run `count` pinned tasks that each wait at a shared barrier until all
/// `count` have arrived. True when every task met the others, i.e. each
/// had a thread of its own at the same time. The wait is bounded, so a
/// scheduler that serialises the tasks fails here instead of hanging.
bool pinned_tasks_meet(std::size_t count) {
  std::mutex mu;
  std::condition_variable arrived_cv;
  std::size_t arrived = 0;
  bool timed_out = false;
  run_pinned(count, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    if (++arrived == count) arrived_cv.notify_all();
    if (!arrived_cv.wait_for(lock, std::chrono::seconds(10), [&] {
          return arrived == count || timed_out;
        })) {
      timed_out = true;
      arrived_cv.notify_all();  // release the peers already waiting
    }
  });
  return !timed_out && arrived == count;
}

TEST(RunPinned, EveryTaskHasItsOwnThreadAtTopLevel) {
  ASSERT_FALSE(in_parallel_region());
  for (std::size_t count = 2; count <= 8; ++count)
    EXPECT_TRUE(pinned_tasks_meet(count)) << "count=" << count;
}

TEST(RunPinned, EveryTaskHasItsOwnThreadInsideAParallelRegion) {
  // Nested pool regions run inline, so run_pinned must fall back to
  // dedicated threads here.
  for (std::size_t count = 2; count <= 8; ++count) {
    std::atomic<int> met{0};
    auto status = parallel_for(2, ExecPolicy::with_threads(2),
                               [&](std::size_t) {
                                 EXPECT_TRUE(in_parallel_region());
                                 if (pinned_tasks_meet(count)) ++met;
                               });
    EXPECT_TRUE(status.complete());
    EXPECT_EQ(met.load(), 2) << "count=" << count;
  }
}

}  // namespace
}  // namespace tinysdr::exec
