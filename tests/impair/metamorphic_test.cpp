// Metamorphic proof of the impairment/calibration pair, per PHY:
//
//   1. PER(clean) == 0 at the pinned high-SNR point;
//   2. PER(impaired, uncorrected) >= PER(clean) — and the pinned
//      magnitudes are chosen to actually break the demod (>= 0.5);
//   3. PER(impaired + matching correction) ~= PER(clean) within a stated
//      tolerance — CalibratedRx undoes what the chain injected;
//   4. a zero-magnitude chain is byte-identical to no chain at all.
//
// The impairment stack per trial is the physical front-end order: crystal
// CFO, then mixer IQ imbalance, then ADC DC offset; CalibratedRx inverts
// in reverse (DC -> IQ -> CFO). Magnitudes sit inside each estimator's
// capture range (see EXPERIMENTS.md for the per-PHY ranges).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "impair/impair.hpp"
#include "phy/calibrated_rx.hpp"
#include "phy/link_sim.hpp"
#include "phy/registry.hpp"

namespace tinysdr::phy {
namespace {

struct MetamorphicCase {
  const char* phy;
  double rssi_dbm;
  double cfo_cps;  ///< RX carrier offset, cycles/sample
  dsp::Complex dc;
  double iq_gain_db;
  double iq_phase_deg;
};

// gtest would otherwise print the raw bytes of the case, `phy` pointer
// included, and CTest folds that dump into the test name: the name would
// change with every address-space layout.
void PrintTo(const MetamorphicCase& c, std::ostream* os) { *os << c.phy; }

// Tuned so the clean link is error-free, the impaired one badly broken,
// and every magnitude within the PHY's calibration capture range.
constexpr MetamorphicCase kCases[] = {
    {"lora", -110.0, 0.0018, {1.0f, 0.5f}, 2.0, 10.0},
    {"ble", -85.0, 0.05, {0.5f, -0.3f}, 2.0, 10.0},
    {"zigbee", -88.0, 0.005, {0.3f, -0.2f}, 1.5, 8.0},
    {"sigfox", -120.0, 0.03, {0.5f, -0.3f}, 2.0, 10.0},
    {"nbiot", -110.0, 0.004, {0.3f, -0.2f}, 1.5, 8.0},
};

TrialPlan plan_for(const RegisteredPhy& entry) {
  TrialPlan plan;
  plan.trials = 20;
  plan.payload_bytes = 12;
  plan.pad_samples = entry.pad_samples;
  plan.noise_figure_db = entry.system_noise_figure_db;
  plan.base_seed = 0xCA1;
  return plan;
}

class ImpairMetamorphic : public ::testing::TestWithParam<MetamorphicCase> {};

TEST_P(ImpairMetamorphic, CorrectionRestoresTheCleanLink) {
  const MetamorphicCase& c = GetParam();
  const RegisteredPhy* entry = Registry::builtin().find_by_name(c.phy);
  ASSERT_NE(entry, nullptr);
  auto tx = entry->make_tx();
  auto rx = entry->make_rx();
  const TrialPlan plan = plan_for(*entry);
  const SweepPoint point{Dbm{c.rssi_dbm}, std::nullopt};

  LinkSimulator clean{*tx, *rx, plan};
  const PointResult r_clean = clean.run_point(point);
  EXPECT_EQ(r_clean.frame_errors, 0u)
      << c.phy << ": pinned point must be clean";

  const impair::CfoDrift cfo{c.cfo_cps};
  const impair::IqImbalance iq{c.iq_gain_db, c.iq_phase_deg};
  const impair::DcOffset dc{c.dc};

  LinkSimulator impaired{*tx, *rx, plan};
  impaired.add_impairment(cfo, impair::Stage::kRx);
  impaired.add_impairment(iq, impair::Stage::kRx);
  impaired.add_impairment(dc, impair::Stage::kRx);
  const PointResult r_impaired = impaired.run_point(point);
  EXPECT_GE(r_impaired.per(), r_clean.per())
      << c.phy << ": impairments may never improve the link";
  EXPECT_GE(r_impaired.per(), 0.5)
      << c.phy << ": pinned magnitudes should badly break the demod";

  auto cal_rx = make_calibrated_rx(*entry);
  LinkSimulator corrected{*tx, *cal_rx, plan};
  corrected.add_impairment(cfo, impair::Stage::kRx);
  corrected.add_impairment(iq, impair::Stage::kRx);
  corrected.add_impairment(dc, impair::Stage::kRx);
  const PointResult r_corrected = corrected.run_point(point);
  EXPECT_LE(r_corrected.per(), r_clean.per() + 0.15)
      << c.phy << ": calibration must restore the clean PER";
}

TEST_P(ImpairMetamorphic, ZeroMagnitudeChainIsByteIdentical) {
  const MetamorphicCase& c = GetParam();
  const RegisteredPhy* entry = Registry::builtin().find_by_name(c.phy);
  ASSERT_NE(entry, nullptr);
  auto tx = entry->make_tx();
  auto rx = entry->make_rx();
  const TrialPlan plan = plan_for(*entry);
  const SweepPoint point{Dbm{c.rssi_dbm}, std::nullopt};

  LinkSimulator bare{*tx, *rx, plan};
  const PointResult r_bare = bare.run_point(point);

  const impair::CfoDrift cfo{0.0};
  const impair::IqImbalance iq{0.0, 0.0};
  const impair::DcOffset dc{{0.0f, 0.0f}};
  const impair::PhaseNoise pn{0.0};
  const impair::PaClip clip{0.0};
  LinkSimulator zeroed{*tx, *rx, plan};
  zeroed.add_impairment(clip, impair::Stage::kTx);
  zeroed.add_impairment(cfo, impair::Stage::kRx);
  zeroed.add_impairment(iq, impair::Stage::kRx);
  zeroed.add_impairment(dc, impair::Stage::kRx);
  zeroed.add_impairment(pn, impair::Stage::kRx);
  const PointResult r_zeroed = zeroed.run_point(point);
  EXPECT_EQ(r_zeroed, r_bare);
}

INSTANTIATE_TEST_SUITE_P(AllPhys, ImpairMetamorphic,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.phy);
                         });

TEST(CalibratedRxConfig, DefaultCalibrationMatchesRegistry) {
  for (const auto& entry : Registry::builtin().entries()) {
    const RxCalibration cal = default_calibration(entry);
    EXPECT_EQ(cal.cfo_lag, entry.cfo_lag) << entry.name;
    EXPECT_EQ(cal.cfo_power, entry.cfo_power) << entry.name;
    EXPECT_EQ(cal.cfo_window, entry.cfo_window) << entry.name;
    EXPECT_TRUE(std::isfinite(cal.cfo_bias)) << entry.name;
    // The bias is the estimator's zero-CFO reading: small by construction.
    EXPECT_LT(std::abs(cal.cfo_bias), 0.1) << entry.name;
  }
}

}  // namespace
}  // namespace tinysdr::phy
