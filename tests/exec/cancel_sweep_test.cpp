// CancellationSource / deadline interaction with LinkSimulator sweeps:
// a cancelled or deadline-bounded sweep must return a well-formed partial
// RunStatus — every point either fully ran or never ran, merged telemetry
// covers exactly the completed points, and no metrics shard is leaked or
// double-counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/parallel_for.hpp"
#include "obs/metrics.hpp"
#include "phy/link_sim.hpp"
#include "phy/registry.hpp"

namespace tinysdr::phy {
namespace {

struct SweepFixture {
  const RegisteredPhy& entry = Registry::builtin().at(Protocol::kBle);
  std::unique_ptr<PhyTx> tx = entry.make_tx();
  std::unique_ptr<PhyRx> rx = entry.make_rx();
  TrialPlan plan;
  std::vector<SweepPoint> points;

  SweepFixture() {
    plan.trials = 4;
    plan.payload_bytes = 6;
    plan.base_seed = 33;
    for (double rssi = -106.0; rssi <= -85.0; rssi += 3.0)
      points.push_back({Dbm{rssi}, std::nullopt});
  }

  [[nodiscard]] LinkSimulator sim() const { return {*tx, *rx, plan}; }
};

void expect_well_formed(const SweepFixture& f,
                        const std::vector<PointResult>& results,
                        const exec::RunStatus& status) {
  ASSERT_EQ(results.size(), f.points.size());
  std::size_t completed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    // All-or-nothing per point: a point either ran its full trial loop
    // or was never started (value-initialised, frames == 0).
    if (results[i].frames == 0) {
      EXPECT_EQ(results[i], PointResult{}) << "point " << i;
    } else {
      EXPECT_EQ(results[i].frames, f.plan.trials) << "point " << i;
      EXPECT_EQ(results[i].rssi_dbm, f.points[i].rssi.value());
      ++completed;
    }
  }
  EXPECT_EQ(completed, status.items_completed);
}

TEST(CancelSweep, PreCancelledTokenRunsNothing) {
  SweepFixture f;
  exec::CancellationSource source;
  source.cancel();
  exec::ExecPolicy policy;
  policy.cancel = source.token();

  obs::Registry registry;
  obs::MetricsSession session{registry};
  std::vector<PointResult> results;
  exec::RunStatus status = f.sim().sweep(f.points, results, policy);

  EXPECT_EQ(status.outcome, exec::RunOutcome::kCancelled);
  EXPECT_EQ(status.items_completed, 0u);
  expect_well_formed(f, results, status);
  // No shard ran, so no telemetry leaked into the parent registry.
  EXPECT_TRUE(registry.snapshot().counters.empty());
  EXPECT_TRUE(registry.snapshot().histograms.empty());
}

TEST(CancelSweep, ExpiredDeadlineReportsDeadlineExceeded) {
  SweepFixture f;
  exec::ExecPolicy policy;
  policy.threads = 2;
  policy.deadline = Seconds{0.0};  // already expired

  std::vector<PointResult> results;
  exec::RunStatus status = f.sim().sweep(f.points, results, policy);

  EXPECT_EQ(status.outcome, exec::RunOutcome::kDeadlineExceeded);
  expect_well_formed(f, results, status);
  EXPECT_LT(status.items_completed, f.points.size());
}

TEST(CancelSweep, MidSweepCancellationYieldsConsistentPartialTelemetry) {
  SweepFixture f;
  exec::CancellationSource source;
  exec::ExecPolicy policy;
  policy.threads = 2;
  policy.cancel = source.token();

  obs::Registry registry;
  obs::MetricsSession session{registry};
  std::vector<PointResult> results;

  // Cancel concurrently; whatever subset completes must be consistent.
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    source.cancel();
  });
  exec::RunStatus status = f.sim().sweep(f.points, results, policy);
  canceller.join();

  EXPECT_TRUE(status.outcome == exec::RunOutcome::kCancelled ||
              status.outcome == exec::RunOutcome::kCompleted);
  expect_well_formed(f, results, status);

  // Merged telemetry covers exactly the completed points: the trials
  // counter equals the frames actually accumulated — shards of skipped
  // points contribute nothing, completed shards contribute once.
  std::uint64_t frames = 0;
  for (const auto& r : results) frames += r.frames;
  auto snapshot = registry.snapshot();
  const std::string counter = "phy." + std::string(protocol_name(
                                           f.entry.id)) + ".trials";
  if (frames == 0) {
    EXPECT_EQ(snapshot.counters.count(counter), 0u);
  } else {
    ASSERT_EQ(snapshot.counters.count(counter), 1u);
    EXPECT_DOUBLE_EQ(snapshot.counters.at(counter),
                     static_cast<double>(frames));
  }
}

TEST(CancelSweep, PartialResultsMatchTheFullRunPointForPoint) {
  SweepFixture f;
  auto full = f.sim().sweep(f.points, exec::ExecPolicy::serial());

  // However the deadline truncates the sweep, every point that DID run
  // is byte-identical to the same point in an unbounded run.
  exec::ExecPolicy policy;
  policy.threads = 2;
  policy.deadline = Seconds{0.0};
  std::vector<PointResult> partial;
  (void)f.sim().sweep(f.points, partial, policy);
  for (std::size_t i = 0; i < partial.size(); ++i)
    if (partial[i].frames != 0) {
      EXPECT_EQ(partial[i], full[i]) << "point " << i;
    }
}

TEST(CancelSweep, LegacySweepStaysCompleteAndEquivalent) {
  SweepFixture f;
  auto legacy = f.sim().sweep(f.points, exec::ExecPolicy::serial());
  std::vector<PointResult> results;
  exec::RunStatus status =
      f.sim().sweep(f.points, results, exec::ExecPolicy::serial());
  EXPECT_EQ(status.outcome, exec::RunOutcome::kCompleted);
  EXPECT_EQ(status.items_completed, f.points.size());
  EXPECT_EQ(results, legacy);
}

}  // namespace
}  // namespace tinysdr::phy
