#include "common/units.hpp"

#include <gtest/gtest.h>

namespace tinysdr {
namespace {

TEST(Dbm, LinearConversionRoundTrip) {
  Dbm p{14.0};
  EXPECT_NEAR(p.milliwatts(), 25.1188, 1e-3);
  EXPECT_NEAR(Dbm::from_milliwatts(p.milliwatts()).value(), 14.0, 1e-9);
}

TEST(Dbm, ZeroDbmIsOneMilliwatt) {
  EXPECT_NEAR(Dbm{0.0}.milliwatts(), 1.0, 1e-12);
}

TEST(Dbm, FromNonPositiveThrows) {
  EXPECT_THROW((void)Dbm::from_milliwatts(0.0), std::domain_error);
  EXPECT_THROW((void)Dbm::from_milliwatts(-1.0), std::domain_error);
}

TEST(Dbm, DbOffsetArithmetic) {
  Dbm p{10.0};
  EXPECT_DOUBLE_EQ((p + 3.0).value(), 13.0);
  EXPECT_DOUBLE_EQ((p - 20.0).value(), -10.0);
  EXPECT_DOUBLE_EQ(Dbm{14.0} - Dbm{-126.0}, 140.0);
}

TEST(Milliwatts, MicrowattConversions) {
  auto p = Milliwatts::from_microwatts(30.0);
  EXPECT_NEAR(p.value(), 0.03, 1e-12);
  EXPECT_NEAR(p.microwatts(), 30.0, 1e-9);
}

TEST(Milliwatts, VoltsTimesMilliamps) {
  auto p = Milliwatts::from_volts_milliamps(3.7, 10.0);
  EXPECT_NEAR(p.value(), 37.0, 1e-12);
}

TEST(Hertz, Conversions) {
  auto f = Hertz::from_megahertz(915.0);
  EXPECT_NEAR(f.value(), 915e6, 1.0);
  EXPECT_NEAR(f.kilohertz(), 915000.0, 1e-6);
  EXPECT_NEAR(Hertz::from_kilohertz(125.0).value(), 125000.0, 1e-9);
}

TEST(Seconds, Conversions) {
  auto t = Seconds::from_microseconds(220.0);
  EXPECT_NEAR(t.milliseconds(), 0.22, 1e-12);
  EXPECT_NEAR(Seconds::from_milliseconds(22.0).value(), 0.022, 1e-15);
}

TEST(Energy, PowerTimesTime) {
  Millijoules e = Milliwatts{287.0} * Seconds{2.0};
  EXPECT_NEAR(e.value(), 574.0, 1e-9);
  EXPECT_NEAR((Seconds{2.0} * Milliwatts{287.0}).value(), 574.0, 1e-9);
}

TEST(Battery, EnergyAndLifetime) {
  BatteryCapacity battery{1000.0, 3.7};
  // 1000 mAh * 3.7 V = 3.7 Wh = 13320 J.
  EXPECT_NEAR(battery.energy().joules(), 13320.0, 1.0);
  // At the paper's 30 uW sleep power the battery lasts > 14 years.
  Seconds life = battery.lifetime_at(Milliwatts::from_microwatts(30.0));
  EXPECT_GT(life.value() / 86400.0 / 365.0, 14.0);
}

TEST(Battery, LifetimeRejectsNonPositiveDraw) {
  BatteryCapacity battery{1000.0, 3.7};
  EXPECT_THROW((void)battery.lifetime_at(Milliwatts{0.0}), std::domain_error);
}

}  // namespace
}  // namespace tinysdr
