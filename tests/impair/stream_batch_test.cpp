// Differential suite: the impairment chain must behave byte-identically
// whether its trials run through LinkSimulator::run_point() or through the
// streaming flowgraph, whose source and frame slicer call the same
// LinkSimulator::transmit()/receive() — across ring sizes, with
// inter-frame gaps, under the threaded scheduler, and with an interferer
// in the mix. The impair.<stage>.<block>.samples counters must agree too.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "flow/link_stream.hpp"
#include "impair/impair.hpp"
#include "obs/metrics.hpp"
#include "phy/link_sim.hpp"
#include "phy/registry.hpp"

namespace tinysdr::flow {
namespace {

phy::TrialPlan small_plan() {
  phy::TrialPlan plan;
  plan.trials = 5;
  plan.payload_bytes = 8;
  plan.pad_samples = 24;
  plan.base_seed = 0x5EED;
  return plan;
}

// A full-stack chain touching both stages and every state flavour:
// memoryless (clip, iq, dc), position-dependent (cfo) and random-walk
// (phase noise).
struct FullChain {
  impair::PaClip clip{0.9, 2.0};
  impair::IqImbalance iq{0.8, 4.0};
  impair::CfoDrift cfo{0.002, 1e-8};
  impair::DcOffset dc{{0.1f, -0.05f}};
  impair::PhaseNoise pn{0.02};

  void attach(phy::LinkSimulator& sim) const {
    sim.add_impairment(clip, impair::Stage::kTx);
    sim.add_impairment(iq, impair::Stage::kTx);
    sim.add_impairment(cfo, impair::Stage::kRx);
    sim.add_impairment(dc, impair::Stage::kRx);
    sim.add_impairment(pn, impair::Stage::kRx);
  }
  void attach(StreamingLink& stream) const {
    stream.add_impairment(clip, impair::Stage::kTx);
    stream.add_impairment(iq, impair::Stage::kTx);
    stream.add_impairment(cfo, impair::Stage::kRx);
    stream.add_impairment(dc, impair::Stage::kRx);
    stream.add_impairment(pn, impair::Stage::kRx);
  }
};

TEST(ImpairStreamBatch, ByteIdenticalAcrossRingSizes) {
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kZigbee);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  const auto plan = small_plan();
  const phy::SweepPoint point{Dbm{-95.0}, std::nullopt};
  const FullChain chain;

  phy::LinkSimulator classic{*tx, *rx, plan};
  chain.attach(classic);
  const auto expected = classic.run_point(point);

  for (std::size_t ring : {std::size_t{64}, std::size_t{256},
                           std::size_t{1024}}) {
    StreamingLink stream{*tx, *rx, StreamPlan{plan, /*gap_samples=*/0, ring}};
    chain.attach(stream);
    auto got = stream.run(point);
    EXPECT_TRUE(got.report.drained()) << "ring=" << ring;
    EXPECT_EQ(got.point, expected) << "ring=" << ring;
  }
}

TEST(ImpairStreamBatch, GapsDoNotPerturbTheChain) {
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kBle);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  const auto plan = small_plan();
  const phy::SweepPoint point{Dbm{-90.0}, std::nullopt};
  const FullChain chain;

  phy::LinkSimulator classic{*tx, *rx, plan};
  chain.attach(classic);
  const auto expected = classic.run_point(point);

  StreamingLink stream{*tx, *rx, StreamPlan{plan, /*gap_samples=*/173}};
  chain.attach(stream);
  auto got = stream.run(point);
  EXPECT_TRUE(got.report.drained());
  EXPECT_EQ(got.point, expected);
}

TEST(ImpairStreamBatch, InterfererPlusChainStillMatches) {
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kZigbee);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  const auto& ble = phy::Registry::builtin().at(phy::Protocol::kBle);
  auto jam_tx = ble.make_tx();
  const auto plan = small_plan();
  phy::PhyTxInterferer jammer{*jam_tx, plan.payload_bytes};
  const phy::SweepPoint point{Dbm{-94.0}, Dbm{-96.0}};
  const FullChain chain;

  phy::LinkSimulator classic{*tx, *rx, plan};
  classic.add_interferer(jammer);
  chain.attach(classic);
  const auto expected = classic.run_point(point);

  StreamingLink stream{*tx, *rx, StreamPlan{plan, /*gap_samples=*/31}};
  stream.add_interferer(jammer);
  chain.attach(stream);
  auto got = stream.run(point);
  EXPECT_TRUE(got.report.drained());
  EXPECT_EQ(got.point, expected);
}

TEST(FlowThreadedImpairStream, ThreadedScheduleIsByteIdenticalToo) {
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kBle);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  const auto plan = small_plan();
  const phy::SweepPoint point{Dbm{-92.0}, std::nullopt};
  const FullChain chain;

  phy::LinkSimulator classic{*tx, *rx, plan};
  chain.attach(classic);
  const auto expected = classic.run_point(point);

  StreamingLink stream{*tx, *rx,
                       StreamPlan{plan, /*gap_samples=*/64,
                                  /*ring_capacity=*/1 << 10}};
  chain.attach(stream);
  auto got = stream.run(point, /*threaded=*/true);
  EXPECT_TRUE(got.report.drained());
  EXPECT_EQ(got.point, expected);
}

TEST(ImpairStreamBatch, TxOnlyAndRxOnlyChainsMatch) {
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kZigbee);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  const auto plan = small_plan();
  const phy::SweepPoint point{Dbm{-96.0}, std::nullopt};

  const impair::PaClip clip{0.9, 2.0};
  const impair::CfoDrift cfo{0.001};

  {
    phy::LinkSimulator classic{*tx, *rx, plan};
    classic.add_impairment(clip, impair::Stage::kTx);
    const auto expected = classic.run_point(point);
    StreamingLink stream{*tx, *rx, StreamPlan{plan, 0}};
    stream.add_impairment(clip, impair::Stage::kTx);
    EXPECT_EQ(stream.run(point).point, expected);
  }
  {
    phy::LinkSimulator classic{*tx, *rx, plan};
    classic.add_impairment(cfo, impair::Stage::kRx);
    const auto expected = classic.run_point(point);
    StreamingLink stream{*tx, *rx, StreamPlan{plan, 0}};
    stream.add_impairment(cfo, impair::Stage::kRx);
    EXPECT_EQ(stream.run(point).point, expected);
  }
}

/// The impair.<stage>.<block>.samples counters a run adds to a fresh
/// registry.
template <typename Run>
std::map<std::string, double> impair_counters(Run&& run) {
  obs::Registry registry;
  obs::MetricsSession session{registry};
  run();
  std::map<std::string, double> out;
  for (const auto& [name, counter] : registry.counters())
    if (name.starts_with("impair.")) out[name] = counter.value();
  return out;
}

TEST(ImpairStreamBatch, SampleCountersMatchAcrossEngines) {
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kBle);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  const auto plan = small_plan();
  const phy::SweepPoint point{Dbm{-90.0}, std::nullopt};
  const FullChain chain;

  // Recorded from run_point before the stream moved where it counts.
  const std::map<std::string, double> expected{
      {"impair.rx.cfo_drift.samples", 4080.0},
      {"impair.rx.dc_offset.samples", 4080.0},
      {"impair.rx.phase_noise.samples", 4080.0},
      {"impair.tx.iq_imbalance.samples", 4080.0},
      {"impair.tx.pa_clip.samples", 4080.0},
  };

  phy::LinkSimulator classic{*tx, *rx, plan};
  chain.attach(classic);
  EXPECT_EQ(impair_counters([&] { (void)classic.run_point(point); }),
            expected);

  for (std::size_t gap : {std::size_t{0}, std::size_t{173}}) {
    StreamingLink stream{*tx, *rx, StreamPlan{plan, gap}};
    chain.attach(stream);
    for (bool threaded : {false, true})
      EXPECT_EQ(impair_counters([&] { (void)stream.run(point, threaded); }),
                expected)
          << gap << " " << threaded;
  }
}

}  // namespace
}  // namespace tinysdr::flow
