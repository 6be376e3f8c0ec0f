// LinkSimulator determinism contract: results are byte-identical across
// thread counts, a point's trials are independent of the sweep grid, and
// the deterministic telemetry counters agree with the results.
#include "phy/link_sim.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "phy/lora_phy.hpp"
#include "phy/registry.hpp"

namespace tinysdr::phy {
namespace {

TrialPlan symbol_plan(std::uint64_t seed) {
  TrialPlan plan;
  plan.trials = 2;
  plan.payload_bytes = 40;
  plan.noise_figure_db = kLoraSystemNf;
  plan.base_seed = seed;
  return plan;
}

TEST(LinkSimulator, ByteIdenticalAcrossThreadCounts) {
  LoraPhyConfig cfg;
  LoraSymbolTx tx{cfg};
  LoraSymbolRx rx{cfg};
  LinkSimulator sim{tx, rx, symbol_plan(9)};

  std::vector<double> grid;
  for (double rssi = -132.0; rssi <= -118.0; rssi += 2.0)
    grid.push_back(rssi);

  auto run = [&](const exec::ExecPolicy& policy) {
    obs::Registry registry;
    obs::MetricsSession session{registry};
    auto results = sim.sweep_rssi(grid, policy);
    return std::pair{results, registry.snapshot().counters};
  };

  auto [serial, serial_counters] = run(exec::ExecPolicy::serial());
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_TRUE(serial_counters.contains("phy.lora.symbol_errors"));
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    auto [parallel, parallel_counters] =
        run(exec::ExecPolicy::with_threads(threads));
    EXPECT_EQ(parallel, serial) << "results diverged at threads=" << threads;
    EXPECT_EQ(parallel_counters, serial_counters)
        << "telemetry diverged at threads=" << threads;
  }
}

TEST(LinkSimulator, PointIndependentOfSweepGrid) {
  LoraPhyConfig cfg;
  LoraSymbolTx tx{cfg};
  LoraSymbolRx rx{cfg};
  LinkSimulator sim{tx, rx, symbol_plan(11)};

  const std::vector<double> narrow{-124.0};
  const std::vector<double> wide{-130.0, -127.0, -124.0, -121.0};
  auto alone = sim.sweep_rssi(narrow);
  auto in_grid = sim.sweep_rssi(wide);
  ASSERT_EQ(alone.size(), 1u);
  ASSERT_EQ(in_grid.size(), 4u);
  EXPECT_EQ(alone[0], in_grid[2])
      << "a point's trials must not depend on its neighbours";
}

TEST(LinkSimulator, PointSeedIsPureInBaseAndRssi) {
  EXPECT_EQ(LinkSimulator::point_seed(1, -124.0),
            LinkSimulator::point_seed(1, -124.0));
  EXPECT_NE(LinkSimulator::point_seed(1, -124.0),
            LinkSimulator::point_seed(2, -124.0));
  EXPECT_NE(LinkSimulator::point_seed(1, -124.0),
            LinkSimulator::point_seed(1, -122.0));
}

TEST(LinkSimulator, CountersMatchResults) {
  const auto& entry = Registry::builtin().at(Protocol::kBle);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  TrialPlan plan;
  plan.trials = 5;
  plan.payload_bytes = 8;
  plan.noise_figure_db = entry.system_noise_figure_db;
  plan.base_seed = 3;
  LinkSimulator sim{*tx, *rx, plan};

  obs::Registry registry;
  obs::MetricsSession session{registry};
  auto result = sim.run_point({Dbm{-96.0}, std::nullopt});
  EXPECT_EQ(result.frames, plan.trials);
  EXPECT_EQ(registry.counter("phy.ble.trials").value(),
            static_cast<double>(result.frames));
  EXPECT_EQ(registry.counter("phy.ble.frame_errors").value(),
            static_cast<double>(result.frame_errors));
  EXPECT_EQ(registry.counter("phy.ble.bit_errors").value(),
            static_cast<double>(result.bit_errors));
}

// Regression: growing the impairment-chain slot must not perturb the
// engine when the chain is empty. These PointResults were captured on the
// tree *before* the chain existed; any drift here means run_point() is no
// longer byte-identical to its pre-impairment self.
TEST(LinkSimulator, EmptyImpairmentChainPreservesHistoricResults) {
  struct Golden {
    const char* phy;
    double rssi_dbm;
    std::uint64_t frames, frame_errors, bits, bit_errors, symbols,
        symbol_errors;
  };
  constexpr Golden kGolden[] = {
      {"lora", -120.0, 6u, 1u, 576u, 96u, 0u, 0u},
      {"ble", -95.0, 6u, 1u, 1344u, 1u, 0u, 0u},
      {"zigbee", -94.0, 6u, 0u, 576u, 0u, 0u, 0u},
      {"sigfox", -130.0, 6u, 0u, 576u, 0u, 0u, 0u},
      {"nbiot", -128.0, 6u, 5u, 576u, 480u, 0u, 0u},
  };
  for (const auto& g : kGolden) {
    const RegisteredPhy* entry = Registry::builtin().find_by_name(g.phy);
    ASSERT_NE(entry, nullptr) << g.phy;
    auto tx = entry->make_tx();
    auto rx = entry->make_rx();
    TrialPlan plan;
    plan.trials = 6;
    plan.payload_bytes = 12;
    plan.pad_samples = entry->pad_samples;
    plan.noise_figure_db = entry->system_noise_figure_db;
    plan.base_seed = 0xF00D;
    LinkSimulator sim{*tx, *rx, plan};
    EXPECT_TRUE(sim.impairments().empty()) << g.phy;
    const PointResult r = sim.run_point({Dbm{g.rssi_dbm}, std::nullopt});
    EXPECT_EQ(r.frames, g.frames) << g.phy;
    EXPECT_EQ(r.frame_errors, g.frame_errors) << g.phy;
    EXPECT_EQ(r.bits, g.bits) << g.phy;
    EXPECT_EQ(r.bit_errors, g.bit_errors) << g.phy;
    EXPECT_EQ(r.symbols, g.symbols) << g.phy;
    EXPECT_EQ(r.symbol_errors, g.symbol_errors) << g.phy;
  }
}

TEST(LinkSimulator, InterfererDegradesTheWeakLink) {
  Hertz fs = Hertz::from_kilohertz(500.0);
  LoraPhyConfig cfg125{.params = {8, Hertz::from_kilohertz(125.0)},
                       .sample_rate = fs};
  LoraPhyConfig cfg250{.params = {8, Hertz::from_kilohertz(250.0)},
                       .sample_rate = fs};
  LoraSymbolTx tx125{cfg125}, tx250{cfg250};
  LoraSymbolRx rx125{cfg125};

  TrialPlan plan = symbol_plan(13);
  plan.trials = 4;
  LinkSimulator sim{tx125, rx125, plan};
  const PhyTxInterferer interferer{tx250, plan.payload_bytes};
  sim.add_interferer(interferer);

  // Same signal point with a negligible vs a dominant interferer: the
  // shared point seed means identical symbols and noise, so any SER gap
  // is the interferer's doing.
  auto quiet = sim.run_point({Dbm{-122.0}, Dbm{-160.0}});
  auto loud = sim.run_point({Dbm{-122.0}, Dbm{-100.0}});
  EXPECT_GT(loud.symbol_errors, quiet.symbol_errors);
}

}  // namespace
}  // namespace tinysdr::phy
