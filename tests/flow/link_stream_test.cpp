// Continuous-waveform LinkSimulator mode: frames streamed back-to-back
// through a flowgraph must reproduce the per-trial engine's PointResult
// byte for byte — same seeds, same floats, same verdicts — in both the
// single-thread and threaded (FlowThreaded* in TSan CI) schedules.
#include "flow/link_stream.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>

#include "adversary/jammer.hpp"
#include "impair/impair.hpp"
#include "phy/lora_phy.hpp"
#include "phy/registry.hpp"

namespace tinysdr::flow {
namespace {

phy::TrialPlan small_plan() {
  phy::TrialPlan plan;
  plan.trials = 5;
  plan.payload_bytes = 8;
  plan.pad_samples = 24;
  plan.base_seed = 77;
  return plan;
}

TEST(LinkStream, MatchesRunPointExactly) {
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kZigbee);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  auto plan = small_plan();

  // A mid-curve RSSI so errors are plausible: identical verdicts matter
  // most where the link is marginal.
  const phy::SweepPoint point{Dbm{-97.0}, std::nullopt};
  phy::LinkSimulator classic{*tx, *rx, plan};
  auto expected = classic.run_point(point);

  StreamingLink stream{*tx, *rx, StreamPlan{plan, /*gap_samples=*/0}};
  auto got = stream.run(point);
  EXPECT_TRUE(got.report.drained());
  EXPECT_EQ(got.point, expected);
}

TEST(LinkStream, GapsBetweenFramesDoNotChangeVerdicts) {
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kBle);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  auto plan = small_plan();
  const phy::SweepPoint point{Dbm{-90.0}, std::nullopt};

  phy::LinkSimulator classic{*tx, *rx, plan};
  auto expected = classic.run_point(point);

  StreamingLink stream{*tx, *rx, StreamPlan{plan, /*gap_samples=*/173}};
  auto got = stream.run(point);
  EXPECT_TRUE(got.report.drained());
  EXPECT_EQ(got.point, expected);
  // Gaps flowed through the graph: more samples streamed than the frames
  // alone account for.
  EXPECT_GT(got.report.samples_streamed, expected.frames * 2);
}

TEST(LinkStream, InterfererSuperpositionMatchesRunPoint) {
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kZigbee);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  const auto& ble = phy::Registry::builtin().at(phy::Protocol::kBle);
  auto jam_tx = ble.make_tx();
  auto plan = small_plan();

  phy::PhyTxInterferer jammer{*jam_tx, plan.payload_bytes};
  const phy::SweepPoint point{Dbm{-94.0}, Dbm{-96.0}};

  phy::LinkSimulator classic{*tx, *rx, plan};
  classic.add_interferer(jammer);
  auto expected = classic.run_point(point);

  StreamingLink stream{*tx, *rx, StreamPlan{plan, /*gap_samples=*/31}};
  stream.add_interferer(jammer);
  auto got = stream.run(point);
  EXPECT_TRUE(got.report.drained());
  EXPECT_EQ(got.point, expected);
}

TEST(FlowThreadedLinkStream, ThreadedRunIsByteIdenticalToo) {
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kBle);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  auto plan = small_plan();
  const phy::SweepPoint point{Dbm{-92.0}, std::nullopt};

  phy::LinkSimulator classic{*tx, *rx, plan};
  auto expected = classic.run_point(point);

  StreamPlan splan{plan, /*gap_samples=*/64, /*ring_capacity=*/1 << 10};
  StreamingLink stream{*tx, *rx, splan};
  auto got = stream.run(point, /*threaded=*/true);
  EXPECT_TRUE(got.report.drained());
  EXPECT_EQ(got.point, expected);
}

TEST(FlowThreadedLinkStream, ScheduleStaysBounded) {
  // A long stream holds only the frames in flight between the source and
  // the slicer, however many trials it runs.
  const auto& entry = phy::Registry::builtin().at(phy::Protocol::kZigbee);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  auto plan = small_plan();
  plan.trials = 480;
  const phy::SweepPoint point{Dbm{-97.0}, std::nullopt};

  phy::LinkSimulator classic{*tx, *rx, plan};
  const auto expected = classic.run_point(point);

  StreamingLink stream{*tx, *rx, StreamPlan{plan, /*gap_samples=*/64, 1 << 10}};
  for (bool threaded : {false, true}) {
    const auto got = stream.run(point, threaded);
    EXPECT_TRUE(got.report.drained()) << threaded;
    EXPECT_EQ(got.point, expected) << threaded;
    EXPECT_LE(got.frames_live_peak, 4u) << threaded;
  }
}

TEST(FlowThreadedLinkStream, Fig15aConcurrentLoraMatchesRunPoint) {
  // Fig. 15a's oversampled pair: the receiver conditions (FIR + decimate)
  // every frame, and a ring smaller than one frame splits each region
  // across many slicer activations.
  const Hertz fs = Hertz::from_kilohertz(500.0);
  const phy::LoraPhyConfig victim{.params = {8, Hertz::from_kilohertz(125.0)},
                                  .sample_rate = fs};
  const phy::LoraPhyConfig other{.params = {8, Hertz::from_kilohertz(250.0)},
                                 .sample_rate = fs};
  const phy::LoraSymbolTx tx{victim};
  const phy::LoraSymbolRx rx{victim};
  const phy::LoraSymbolTx jam_tx{other};
  phy::TrialPlan plan;
  plan.trials = 3;
  plan.base_seed = 77;
  plan.noise_figure_db = phy::kLoraSystemNf;
  const phy::PhyTxInterferer jammer{jam_tx, plan.payload_bytes};
  const phy::SweepPoint point{Dbm{-123.0}, Dbm{-126.0}};

  phy::LinkSimulator classic{tx, rx, plan};
  classic.add_interferer(jammer);
  const auto expected = classic.run_point(point);
  // Mid-curve: some symbols are lost, not all.
  ASSERT_GT(expected.symbol_errors, 0u);
  ASSERT_LT(expected.symbol_errors, expected.symbols);

  for (std::size_t gap : {std::size_t{0}, std::size_t{173}}) {
    StreamingLink stream{tx, rx, StreamPlan{plan, gap, 1 << 10}};
    stream.add_interferer(jammer);
    for (bool threaded : {false, true}) {
      auto got = stream.run(point, threaded);
      EXPECT_TRUE(got.report.drained()) << gap << " " << threaded;
      EXPECT_EQ(got.point, expected) << gap << " " << threaded;
    }
  }
}

/// FNV-1a over the result's fields, in declaration order.
std::uint64_t fnv1a(const phy::PointResult& r) {
  const std::uint64_t fields[] = {
      std::bit_cast<std::uint64_t>(r.rssi_dbm), r.frames, r.frame_errors,
      r.bits, r.bit_errors, r.symbols, r.symbol_errors};
  std::uint64_t h = 0xcbf29ce484222325ull;
  unsigned char bytes[sizeof fields];
  std::memcpy(bytes, fields, sizeof fields);
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(FlowThreadedLinkStream, TwoSlotsWithReactiveJammerMatchPin) {
  // Two interferer slots: a concurrent BLE transmitter at the point's
  // interferer RSSI, and a reactive jammer at a fixed power that keys off
  // the clean victim signal. A TX PA clip distorts the mixed waveform.
  // The leading pad is longer than the jammer's detection window, so a
  // jammer that heard the BLE emission would key up early and change the
  // result. The pin was recorded from run_point before either engine
  // changed.
  const auto& zigbee = phy::Registry::builtin().at(phy::Protocol::kZigbee);
  const auto& ble = phy::Registry::builtin().at(phy::Protocol::kBle);
  auto tx = zigbee.make_tx();
  auto rx = zigbee.make_rx();
  auto ble_tx = ble.make_tx();
  auto plan = small_plan();
  plan.pad_samples = 128;
  plan.noise_figure_db = zigbee.system_noise_figure_db;

  const phy::PhyTxInterferer concurrent{*ble_tx, plan.payload_bytes};
  const adversary::ReactiveJammer jammer{};
  const impair::PaClip clip{0.9, 2.0};
  const phy::SweepPoint point{Dbm{-94.0}, Dbm{-99.0}};
  const Dbm jam_power{-97.0};

  phy::LinkSimulator classic{*tx, *rx, plan};
  classic.add_interferer(concurrent);
  classic.add_interferer(jammer, jam_power);
  classic.add_impairment(clip, impair::Stage::kTx);
  const auto expected = classic.run_point(point);
  EXPECT_EQ(expected.frames, 5u);
  EXPECT_EQ(expected.frame_errors, 4u);
  EXPECT_EQ(expected.bits, 320u);
  EXPECT_EQ(fnv1a(expected), 0x8d076bb1d5b19bdbull);

  for (std::size_t gap : {std::size_t{0}, std::size_t{97}}) {
    StreamingLink stream{*tx, *rx, StreamPlan{plan, gap, 1 << 9}};
    stream.add_interferer(concurrent);
    stream.add_interferer(jammer, jam_power);
    stream.add_impairment(clip, impair::Stage::kTx);
    for (bool threaded : {false, true}) {
      auto got = stream.run(point, threaded);
      EXPECT_TRUE(got.report.drained()) << gap << " " << threaded;
      EXPECT_EQ(got.point, expected) << gap << " " << threaded;
    }
  }
}

}  // namespace
}  // namespace tinysdr::flow
