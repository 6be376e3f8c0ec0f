#include "channel/link_budget.hpp"

#include <gtest/gtest.h>

namespace tinysdr::channel {
namespace {

TEST(PathLossModel, FreeSpaceReferenceAt915MHz) {
  // FSPL at 1 m, 915 MHz = 20 log10(4*pi*1*915e6/3e8) ~ 31.7 dB.
  PathLossModel m{Hertz::from_megahertz(915.0), 2.0};
  EXPECT_NEAR(m.reference_loss_db(), 31.7, 0.2);
}

TEST(PathLossModel, FreeSpace100m) {
  PathLossModel m{Hertz::from_megahertz(915.0), 2.0};
  // FSPL(100 m) = 31.7 + 40 = 71.7 dB.
  EXPECT_NEAR(m.loss_db(100.0), 71.7, 0.3);
}

TEST(PathLossModel, HigherFrequencyHigherLoss) {
  PathLossModel sub{Hertz::from_megahertz(915.0), 2.0};
  PathLossModel ism{Hertz::from_megahertz(2440.0), 2.0};
  // 2.44 GHz vs 915 MHz: 20 log10(2440/915) ~ 8.5 dB more loss.
  EXPECT_NEAR(ism.loss_db(100.0) - sub.loss_db(100.0), 8.5, 0.2);
}

TEST(PathLossModel, ExponentControlsDecay) {
  PathLossModel free{Hertz::from_megahertz(915.0), 2.0};
  PathLossModel campus{Hertz::from_megahertz(915.0), 2.9};
  double d = 500.0;
  EXPECT_GT(campus.loss_db(d), free.loss_db(d));
  // Per-decade slopes: 20 dB vs 29 dB.
  EXPECT_NEAR(campus.loss_db(1000.0) - campus.loss_db(100.0), 29.0, 0.01);
}

TEST(PathLossModel, ClampsBelowOneMeter) {
  PathLossModel m{Hertz::from_megahertz(915.0), 2.0};
  EXPECT_DOUBLE_EQ(m.loss_db(0.1), m.loss_db(1.0));
}

TEST(PathLossModel, LoRaKilometerRangeClaim) {
  // Sanity-check the paper's premise: LoRa at 14 dBm reaching -126 dBm
  // sensitivity spans kilometers even with campus-grade path loss.
  PathLossModel m{Hertz::from_megahertz(915.0), 2.9};
  EXPECT_GT(m.received_power(Dbm{14.0}, 1000.0).value(), -126.0);
}

TEST(Link, RssiIncludesGainsAndShadowing) {
  PathLossModel m{Hertz::from_megahertz(915.0), 2.0};
  Link link;
  link.tx_power = Dbm{14.0};
  link.distance_meters = 100.0;
  link.tx_antenna_gain_db = 2.0;
  link.rx_antenna_gain_db = 3.0;
  link.shadowing_db = 5.0;
  Dbm base = m.received_power(Dbm{14.0}, 100.0);
  EXPECT_NEAR(link.rssi(m).value(), base.value() + 2.0 + 3.0 - 5.0, 1e-9);
}

}  // namespace
}  // namespace tinysdr::channel
