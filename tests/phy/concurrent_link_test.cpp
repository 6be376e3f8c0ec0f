// Behaviours of the Fig. 15 concurrent-LoRa experiment and the basic
// packet/bit links, measured on the one trial engine (LinkSimulator) with
// the registry's calibrated noise figures. The concurrent pair is the
// paper's SF8/BW125 + SF8/BW250 in one 500 kHz capture; each branch is a
// LinkSimulator whose interferer is the other configuration.
#include <gtest/gtest.h>

#include "phy/link_sim.hpp"
#include "phy/lora_phy.hpp"
#include "phy/registry.hpp"

namespace tinysdr::phy {
namespace {

struct ConcurrentPair {
  Hertz fs = Hertz::from_kilohertz(500.0);
  LoraPhyConfig cfg125{.params = {8, Hertz::from_kilohertz(125.0)},
                       .sample_rate = fs};
  LoraPhyConfig cfg250{.params = {8, Hertz::from_kilohertz(250.0)},
                       .sample_rate = fs};
  LoraSymbolTx tx125{cfg125}, tx250{cfg250};
  LoraSymbolRx rx125{cfg125}, rx250{cfg250};

  /// SF8 carries one symbol per payload byte. A BW250 symbol is half as
  /// long as a BW125 one, so the BW250 stream sends twice the symbols to
  /// cover the same air time.
  static TrialPlan plan(std::size_t symbols, std::uint64_t seed) {
    TrialPlan p;
    p.trials = 1;
    p.payload_bytes = symbols;
    p.noise_figure_db = kLoraSystemNf;
    p.base_seed = seed;
    return p;
  }

  /// The BW125 link with the BW250 stream as its concurrent interferer.
  [[nodiscard]] PointResult bw125(const SweepPoint& point,
                                  std::size_t symbols,
                                  std::uint64_t seed) const {
    LinkSimulator sim{tx125, rx125, plan(symbols, seed)};
    const PhyTxInterferer other{tx250, 2 * symbols};
    sim.add_interferer(other);
    return sim.run_point(point);
  }

  /// The BW250 link with the BW125 stream as its concurrent interferer.
  [[nodiscard]] PointResult bw250(const SweepPoint& point,
                                  std::size_t symbols,
                                  std::uint64_t seed) const {
    LinkSimulator sim{tx250, rx250, plan(2 * symbols, seed)};
    const PhyTxInterferer other{tx125, symbols};
    sim.add_interferer(other);
    return sim.run_point(point);
  }

  /// A link alone, with no interferer.
  [[nodiscard]] static PointResult single(const PhyTx& tx, const PhyRx& rx,
                                          Dbm rssi, std::size_t symbols,
                                          std::uint64_t seed) {
    return LinkSimulator{tx, rx, plan(symbols, seed)}.run_point(
        {rssi, std::nullopt});
  }
};

TEST(ConcurrentTrial, CleanDecodingAtStrongSignals) {
  const ConcurrentPair pair;
  const SweepPoint point{Dbm{-110.0}, Dbm{-110.0}};
  const auto a = pair.bw125(point, 60, 1);
  const auto b = pair.bw250(point, 60, 1);
  EXPECT_LT(a.ser(), 0.02);
  EXPECT_LT(b.ser(), 0.02);
  EXPECT_EQ(a.symbols, 60u);
  EXPECT_EQ(b.symbols, 120u);
}

TEST(ConcurrentTrial, OrthogonalityHoldsWithoutNoise) {
  // With both signals far above the noise floor the slopes are
  // quasi-orthogonal: each branch decodes its own stream exactly as well
  // as it does alone (the same seed gives the same symbols and noise).
  const ConcurrentPair pair;
  const Dbm level{-80.0};
  const auto a = pair.bw125({level, level}, 40, 2);
  const auto b = pair.bw250({level, level}, 40, 2);
  EXPECT_LT(a.ser(), 0.05);
  EXPECT_LT(b.ser(), 0.05);
  EXPECT_EQ(a.symbol_errors,
            ConcurrentPair::single(pair.tx125, pair.rx125, level, 40, 2)
                .symbol_errors);
  EXPECT_EQ(b.symbol_errors,
            ConcurrentPair::single(pair.tx250, pair.rx250, level, 80, 2)
                .symbol_errors);
}

TEST(ConcurrentTrial, FailsFarBelowSensitivity) {
  const ConcurrentPair pair;
  const SweepPoint point{Dbm{-135.0}, Dbm{-135.0}};
  EXPECT_GT(pair.bw125(point, 40, 3).ser(), 0.5);
  EXPECT_GT(pair.bw250(point, 40, 3).ser(), 0.5);
}

TEST(ConcurrentTrial, ConcurrencyPenaltyIsFewDb) {
  // Fig. 15a: concurrent demodulation loses ~2 dB (BW125) relative to
  // single-signal sensitivity. At a level where the single link loses few
  // symbols, the concurrent one is no better, not destroyed, and no worse
  // than the single link 3 dB lower. The same seed gives the links the
  // same symbols.
  const ConcurrentPair pair;
  const Dbm level{-119.0};
  const double single =
      ConcurrentPair::single(pair.tx125, pair.rx125, level, 150, 4).ser();
  const double concurrent = pair.bw125({level, level}, 150, 4).ser();
  const double single_3db_lower =
      ConcurrentPair::single(pair.tx125, pair.rx125, level - 3.0, 150, 4)
          .ser();
  EXPECT_LE(single, concurrent + 0.05);
  EXPECT_LT(concurrent, 0.5);
  EXPECT_LE(concurrent, single_3db_lower);
}

TEST(ConcurrentTrial, InterferencePowerSweepShowsCrossover) {
  // Fig. 15b: fix the BW125 link near sensitivity and raise the BW250
  // interferer. The error rate stays at its noise-limited level while the
  // interferer is weak, then climbs once it dominates the noise.
  const ConcurrentPair pair;
  const Dbm fixed{-121.0};
  const double weak = pair.bw125({fixed, Dbm{-125.0}}, 120, 5).ser();
  const double strong = pair.bw125({fixed, Dbm{-100.0}}, 120, 5).ser();
  EXPECT_GT(strong, weak + 0.1);
}

TEST(SingleTrial, WaterfallAroundSensitivity) {
  const LoraPhyConfig cfg;  // SF8/BW125, critically sampled
  const LoraSymbolTx tx{cfg};
  const LoraSymbolRx rx{cfg};
  EXPECT_LT(ConcurrentPair::single(tx, rx, Dbm{-115.0}, 100, 8).ser(), 0.02);
  EXPECT_GT(ConcurrentPair::single(tx, rx, Dbm{-136.0}, 100, 8).ser(), 0.3);
}

/// One point of the registered PHY's link at its calibrated defaults.
PointResult registered_point(Protocol protocol, double rssi_dbm,
                             std::size_t trials, std::uint64_t seed) {
  const auto& entry = Registry::builtin().at(protocol);
  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  TrialPlan plan;
  plan.trials = trials;
  plan.payload_bytes = 3;
  plan.pad_samples = entry.pad_samples;
  plan.noise_figure_db = entry.system_noise_figure_db;
  plan.base_seed = seed;
  return LinkSimulator{*tx, *rx, plan}.run_point(
      {Dbm{rssi_dbm}, std::nullopt});
}

TEST(LoraPacketLink, RoundTripAtStrongSignal) {
  const auto r = registered_point(Protocol::kLora, -110.0, 4, 123);
  EXPECT_EQ(r.frames, 4u);
  EXPECT_EQ(r.frame_errors, 0u);
  EXPECT_EQ(r.bit_errors, 0u);
}

TEST(LoraPacketLink, FailsWellBelowSensitivity) {
  const auto r = registered_point(Protocol::kLora, -138.0, 4, 321);
  EXPECT_EQ(r.frame_errors, r.frames);
}

TEST(BleLink, BitErrorsGrowAsTheSignalWeakens) {
  const auto strong = registered_point(Protocol::kBle, -60.0, 4, 6);
  const auto weak = registered_point(Protocol::kBle, -102.0, 4, 6);
  EXPECT_LE(strong.ber(), weak.ber());
  EXPECT_GT(weak.bit_errors, 0u);
}

}  // namespace
}  // namespace tinysdr::phy
