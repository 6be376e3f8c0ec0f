// Tests for the §7 research-opportunity studies: phase-based localization,
// backscatter, rate adaptation, and the broadcast OTA MAC.
#include <gtest/gtest.h>

#include "core/backscatter.hpp"
#include "core/localization.hpp"
#include "lora/rate_adapt.hpp"
#include "ota/broadcast.hpp"

namespace tinysdr {
namespace {

// ----------------------------------------------------------- localization

TEST(PhaseRanging, ExactRecoveryWithoutNoise) {
  core::RangingConfig cfg;
  Rng rng{1};
  for (double d : {0.5, 3.0, 27.5, 80.0, 140.0}) {
    auto sweep = core::simulate_phase_sweep(cfg, d, 0.0, rng);
    auto est = core::estimate_range(cfg, sweep);
    EXPECT_NEAR(est.distance_m, d, 0.02) << "distance " << d;
    EXPECT_LT(est.residual_rad, 0.01);
  }
}

TEST(PhaseRanging, UnambiguousRangeFromStep) {
  core::RangingConfig cfg;  // 2 MHz step
  EXPECT_NEAR(cfg.unambiguous_range_m(), 149.9, 0.1);
}

TEST(PhaseRanging, ToleratesPhaseNoise) {
  core::RangingConfig cfg;
  Rng rng{2};
  auto sweep = core::simulate_phase_sweep(cfg, 42.0, 0.2, rng);
  auto est = core::estimate_range(cfg, sweep);
  EXPECT_NEAR(est.distance_m, 42.0, 2.0);
}

TEST(PhaseRanging, AliasesBeyondUnambiguousRange) {
  // A target past c/step folds back — the fundamental ambiguity.
  core::RangingConfig cfg;
  Rng rng{3};
  double d = cfg.unambiguous_range_m() + 10.0;
  auto sweep = core::simulate_phase_sweep(cfg, d, 0.0, rng);
  auto est = core::estimate_range(cfg, sweep);
  EXPECT_NEAR(est.distance_m, 10.0, 1.0);
}

TEST(PhaseRanging, FinerStepExtendsRange) {
  core::RangingConfig coarse;  // 2 MHz
  core::RangingConfig fine;
  fine.step = Hertz::from_megahertz(0.5);
  EXPECT_GT(fine.unambiguous_range_m(), coarse.unambiguous_range_m() * 3.9);
}

TEST(PhaseRanging, InputValidation) {
  core::RangingConfig cfg;
  Rng rng{4};
  EXPECT_THROW(core::simulate_phase_sweep(cfg, -1.0, 0.0, rng),
               std::invalid_argument);
  EXPECT_THROW((void)core::estimate_range(cfg, {}), std::invalid_argument);
}

// ------------------------------------------------------------ backscatter

TEST(Backscatter, CleanDecoding) {
  core::BackscatterConfig cfg;
  core::BackscatterLink link{cfg};
  std::vector<bool> bits{false, true, true, false, true, false, false, true};
  auto rf = link.tag_modulate(bits);
  auto rx = link.decode(rf, bits.size());
  EXPECT_EQ(rx, bits);
}

TEST(Backscatter, ReflectionIsWeak) {
  // The reflected path must be ~20 dB below the carrier, or it isn't
  // backscatter.
  core::BackscatterConfig cfg;
  core::BackscatterLink link{cfg};
  auto on = link.tag_modulate(std::vector<bool>(4, true));
  auto off = link.tag_modulate(std::vector<bool>(4, false));
  double p_on = dsp::mean_power(on);
  double p_off = dsp::mean_power(off);
  EXPECT_GT(p_on, p_off);
  EXPECT_LT((p_on - p_off) / p_off, 0.5);  // small perturbation
}

TEST(Backscatter, BerLowAtHighCarrierSnr) {
  core::BackscatterConfig cfg;
  Rng rng{5};
  double ber = core::backscatter_ber(cfg, 200, 45.0, rng);
  EXPECT_LT(ber, 0.01);
}

TEST(Backscatter, BerDegradesWithSnr) {
  core::BackscatterConfig cfg;
  // The per-bit integrator has ~26 dB of processing gain over the 400
  // samples per bit, so errors only appear near 0 dB carrier SNR.
  Rng rng1{6}, rng2{6};
  double good = core::backscatter_ber(cfg, 200, 45.0, rng1);
  double bad = core::backscatter_ber(cfg, 200, -2.0, rng2);
  EXPECT_LE(good, bad);
  EXPECT_GT(bad, 0.05);
}

// Pinned on the per-sample next_gaussian noise loop; the block Gaussian
// fill must leave the BER and the caller's generator state unchanged.
TEST(Backscatter, BerAndRngStatePinned) {
  core::BackscatterConfig cfg;
  Rng rng{17};
  const double bers[] = {core::backscatter_ber(cfg, 301, -6.0, rng),
                         core::backscatter_ber(cfg, 301, -3.0, rng),
                         core::backscatter_ber(cfg, 301, 0.0, rng)};
  EXPECT_EQ(bers[0], 0x1.c11028d2ec704p-2);
  EXPECT_EQ(bers[1], 0x1.bda93fc9916f7p-2);
  EXPECT_EQ(bers[2], 0x1.3fc9916f6a4ffp-2);
  EXPECT_EQ(rng.next_u32(), 2908761254u);
}

// -------------------------------------------------------- rate adaptation

TEST(RateAdapt, LadderOrderedFastToSlow) {
  auto ladder = lora::adr_ladder();
  ASSERT_EQ(ladder.size(), 6u);
  for (std::size_t i = 1; i < ladder.size(); ++i)
    EXPECT_GT(ladder[i].sf, ladder[i - 1].sf);
}

TEST(RateAdapt, StrongLinkGetsFastestRate) {
  auto chosen = lora::select_rate(Dbm{-60.0});
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->sf, 7);
}

TEST(RateAdapt, WeakLinkGetsSlowRate) {
  auto chosen = lora::select_rate(Dbm{-131.0});
  ASSERT_TRUE(chosen.has_value());
  EXPECT_GE(chosen->sf, 11);
}

TEST(RateAdapt, DeadLinkGetsNothing) {
  EXPECT_FALSE(lora::select_rate(Dbm{-140.0}).has_value());
}

TEST(RateAdapt, MarginShiftsChoice) {
  Dbm rssi{-120.5};
  auto tight = lora::select_rate(rssi, 0.0);
  auto safe = lora::select_rate(rssi, 6.0);
  ASSERT_TRUE(tight && safe);
  EXPECT_LT(tight->sf, safe->sf);
}

TEST(RateAdapt, AdaptationSavesAirtimeOnGoodLinks) {
  auto outcome = lora::evaluate_rate_adaptation(Dbm{-80.0}, 20);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->adaptive_sf, 7);
  // SF7 vs SF12: >= 20x airtime saving.
  EXPECT_GT(outcome->airtime_saving(), 0.9);
}

TEST(RateAdapt, NoSavingAtTheEdge) {
  auto outcome = lora::evaluate_rate_adaptation(Dbm{-132.0}, 20);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->adaptive_sf, 12);
  EXPECT_NEAR(outcome->airtime_saving(), 0.0, 1e-9);
}

// ---------------------------------------------------------- broadcast OTA

TEST(BroadcastOta, PerfectLinksSinglePass) {
  std::vector<std::uint8_t> image(6000, 0xAB);
  std::vector<ota::OtaLink> links;
  for (int i = 0; i < 10; ++i)
    links.emplace_back(ota::ota_link_params(), Dbm{-60.0},
                       Rng{static_cast<std::uint64_t>(i)});
  auto outcome = ota::broadcast(image, links);
  EXPECT_EQ(outcome.nodes_complete, 10u);
  EXPECT_EQ(outcome.repair_rounds, 1u);
  EXPECT_EQ(outcome.packets_broadcast, (image.size() + 59) / 60);
}

TEST(BroadcastOta, LossyLinksRepairAndComplete) {
  std::vector<std::uint8_t> image(12000, 0x77);
  std::vector<ota::OtaLink> links;
  Dbm marginal =
      lora::sx1276_sensitivity(8, Hertz::from_kilohertz(500.0)) + 3.0;
  for (int i = 0; i < 10; ++i)
    links.emplace_back(ota::ota_link_params(), marginal,
                       Rng{static_cast<std::uint64_t>(100 + i)});
  auto outcome = ota::broadcast(image, links);
  EXPECT_EQ(outcome.nodes_complete, 10u);
  EXPECT_GT(outcome.repair_rounds, 1u);
  EXPECT_GT(outcome.packets_broadcast, (image.size() + 59) / 60);
}

TEST(BroadcastOta, BeatsSequentialForManyNodes) {
  // The §7 claim: broadcasting amortizes airtime across nodes.
  std::vector<std::uint8_t> image(20000, 0x33);
  const int nodes = 20;
  Dbm rssi{-100.0};

  std::vector<ota::OtaLink> links;
  for (int i = 0; i < nodes; ++i)
    links.emplace_back(ota::ota_link_params(), rssi,
                       Rng{static_cast<std::uint64_t>(200 + i)});
  auto broadcast = ota::broadcast(image, links);
  ASSERT_EQ(broadcast.nodes_complete, static_cast<std::size_t>(nodes));

  ota::AccessPoint ap;
  Seconds sequential{0.0};
  for (int i = 0; i < nodes; ++i) {
    ota::OtaLink link{ota::ota_link_params(), rssi,
                      Rng{static_cast<std::uint64_t>(300 + i)}};
    auto r = ap.transfer(image, static_cast<std::uint16_t>(i), link);
    ASSERT_TRUE(r.success);
    sequential += r.total_time;
  }
  EXPECT_GT(broadcast.speedup_vs(sequential), 5.0);
}

}  // namespace
}  // namespace tinysdr
