// Golden modulate->AWGN->demodulate vectors for every registered PHY, and
// pinned points from the LinkSimulator-backed figure benches. These pin
// the exact error counts at fixed seeds: any change to a modulator,
// demodulator, channel model, seed derivation or the trial loop shows up
// here as a changed number, not as a silently shifted curve.
#include <gtest/gtest.h>

#include <vector>

#include "phy/ble_phy.hpp"
#include "phy/link_sim.hpp"
#include "phy/lora_phy.hpp"
#include "phy/registry.hpp"

namespace tinysdr::phy {
namespace {

/// One point of the shared engine at the registry defaults.
PointResult golden_point(Protocol protocol, double rssi_dbm,
                         std::uint64_t seed, std::size_t trials,
                         std::size_t payload_bytes) {
  const auto& entry = Registry::builtin().at(protocol);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  TrialPlan plan;
  plan.trials = trials;
  plan.payload_bytes = payload_bytes;
  plan.pad_samples = entry.pad_samples;
  plan.noise_figure_db = entry.system_noise_figure_db;
  plan.base_seed = seed;
  return LinkSimulator{*tx, *rx, plan}.run_point(
      {Dbm{rssi_dbm}, std::nullopt});
}

TEST(GoldenVectors, LoraPacketsNearTheKnee) {
  auto r = golden_point(Protocol::kLora, -122.0, 42, 10, 3);
  EXPECT_EQ(r.frames, 10u);
  EXPECT_EQ(r.frame_errors, 2u);
  EXPECT_EQ(r.bits, 240u);
  EXPECT_EQ(r.bit_errors, 48u);
}

TEST(GoldenVectors, BleBeaconsNearSensitivity) {
  auto r = golden_point(Protocol::kBle, -96.0, 42, 10, 8);
  EXPECT_EQ(r.frames, 10u);
  EXPECT_EQ(r.frame_errors, 7u);
  EXPECT_EQ(r.bits, 1920u);
  EXPECT_EQ(r.bit_errors, 12u);
}

TEST(GoldenVectors, ZigbeeNearTheKnee) {
  auto r = golden_point(Protocol::kZigbee, -98.0, 42, 10, 8);
  EXPECT_EQ(r.frames, 10u);
  EXPECT_EQ(r.frame_errors, 5u);
  EXPECT_EQ(r.bit_errors, 320u);
}

TEST(GoldenVectors, SigfoxNearTheKnee) {
  auto r = golden_point(Protocol::kSigfox, -137.5, 42, 10, 8);
  EXPECT_EQ(r.frames, 10u);
  EXPECT_EQ(r.frame_errors, 4u);
  EXPECT_EQ(r.bit_errors, 256u);
}

TEST(GoldenVectors, NbiotNearTheKnee) {
  auto r = golden_point(Protocol::kNbiot, -127.0, 42, 10, 8);
  EXPECT_EQ(r.frames, 10u);
  EXPECT_EQ(r.frame_errors, 2u);
  EXPECT_EQ(r.bit_errors, 128u);
}

// ------------------------------------------------- bench curve pins
// Each pin replicates the exact TrialPlan of its figure bench at one
// sweep point, so the published curves cannot drift unnoticed.

TEST(BenchCurvePins, Fig10TinySdrBw125) {
  LoraPhyConfig cfg{.params = {8, Hertz::from_kilohertz(125.0)}};
  LoraPacketTx tx{cfg};
  LoraPacketRx rx{cfg};
  TrialPlan plan;
  plan.trials = 60;
  plan.fixed_payload = std::vector<std::uint8_t>{0xA5, 0x5A, 0x3C};
  plan.pad_samples = 300;
  plan.noise_figure_db = kLoraSystemNf;
  plan.base_seed = 2;  // the bench's tinySDR/BW125 sweep seed
  auto r = LinkSimulator{tx, rx, plan}.run_point({Dbm{-122.0}, std::nullopt});
  EXPECT_EQ(r.frame_errors, 26u);
}

TEST(BenchCurvePins, Fig11Bw125SymbolErrors) {
  LoraPhyConfig cfg{.params = {8, Hertz::from_kilohertz(125.0)}};
  LoraSymbolTx tx{cfg};
  LoraSymbolRx rx{cfg};
  TrialPlan plan;
  plan.trials = 4;
  plan.payload_bytes = 150;
  plan.noise_figure_db = kLoraSystemNf;
  plan.base_seed = 101;  // the bench's BW125 sweep seed
  auto r = LinkSimulator{tx, rx, plan}.run_point({Dbm{-126.0}, std::nullopt});
  EXPECT_EQ(r.symbols, 600u);
  EXPECT_EQ(r.symbol_errors, 136u);
}

TEST(BenchCurvePins, Fig12BleBitErrors) {
  BleBeaconTx tx;
  BleBeaconRx rx;
  TrialPlan plan;
  plan.trials = 150;
  plan.fixed_payload = std::vector<std::uint8_t>{
      0x02, 0x01, 0x06, 0x0B, 0xFF, 0x4C, 0x00, 0x02, 0x15, 0xAA, 0xBB};
  plan.noise_figure_db = kBleSystemNf;
  plan.base_seed = 1;
  auto r = LinkSimulator{tx, rx, plan}.run_point({Dbm{-94.0}, std::nullopt});
  EXPECT_EQ(r.bits, 32400u);
  EXPECT_EQ(r.bit_errors, 22u);
}

TEST(BenchCurvePins, Fig15aConcurrentBw125) {
  Hertz fs = Hertz::from_kilohertz(500.0);
  LoraPhyConfig cfg125{.params = {8, Hertz::from_kilohertz(125.0)},
                       .sample_rate = fs};
  LoraPhyConfig cfg250{.params = {8, Hertz::from_kilohertz(250.0)},
                       .sample_rate = fs};
  LoraSymbolTx tx125{cfg125}, tx250{cfg250};
  LoraSymbolRx rx125{cfg125};
  TrialPlan plan;
  plan.trials = 2;
  plan.payload_bytes = 125;
  plan.noise_figure_db = kLoraSystemNf;
  plan.base_seed = 55;  // the bench's concurrent-BW125 sweep seed
  LinkSimulator sim{tx125, rx125, plan};
  const PhyTxInterferer interferer{tx250, plan.payload_bytes};
  sim.add_interferer(interferer);
  auto r = sim.run_point({Dbm{-124.0}, Dbm{-124.0}});
  EXPECT_EQ(r.symbols, 250u);
  EXPECT_EQ(r.symbol_errors, 129u);
}

TEST(BenchCurvePins, Fig15bInterferenceSweepPoint) {
  Hertz fs = Hertz::from_kilohertz(500.0);
  LoraPhyConfig cfg125{.params = {8, Hertz::from_kilohertz(125.0)},
                       .sample_rate = fs};
  LoraPhyConfig cfg250{.params = {8, Hertz::from_kilohertz(250.0)},
                       .sample_rate = fs};
  LoraSymbolTx tx125{cfg125}, tx250{cfg250};
  LoraSymbolRx rx125{cfg125};
  TrialPlan plan;
  plan.trials = 2;
  plan.payload_bytes = 125;
  plan.noise_figure_db = kLoraSystemNf;
  plan.base_seed = 77;  // the bench's sweep seed
  LinkSimulator sim{tx125, rx125, plan};
  const PhyTxInterferer interferer{tx250, plan.payload_bytes};
  sim.add_interferer(interferer);
  auto r = sim.run_point({Dbm{-123.0}, Dbm{-110.0}});
  EXPECT_EQ(r.symbol_errors, 106u);
}

}  // namespace
}  // namespace tinysdr::phy
