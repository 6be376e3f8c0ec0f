#include "power/platform_power.hpp"

#include <gtest/gtest.h>

namespace tinysdr::power {
namespace {

TEST(PlatformPower, SleepIs30Microwatts) {
  PlatformPowerModel model;
  EXPECT_NEAR(model.sleep_power().microwatts(), 30.0, 2.0);
}

TEST(PlatformPower, SleepIs10000xBelowOtherSdrs) {
  // Table 1: bladeRF 717 mW, USRP E310 2820 mW sleep; tinySDR 0.03 mW.
  PlatformPowerModel model;
  double sleep_mw = model.sleep_power().value();
  EXPECT_LT(sleep_mw * 10000.0, 2820.0 + 1.0);
  EXPECT_GT(717.0 / sleep_mw, 10000.0);
}

TEST(PlatformPower, Fig9SingleTone900MHz) {
  PlatformPowerModel model;
  // 231 mW at 0 dBm, 283 mW at 14 dBm.
  EXPECT_NEAR(model.draw(Activity::kSingleTone900, Dbm{0.0}).value(), 231.0,
              6.0);
  EXPECT_NEAR(model.draw(Activity::kSingleTone900, Dbm{14.0}).value(), 283.0,
              8.0);
}

TEST(PlatformPower, Fig9FlatBelowKnee) {
  PlatformPowerModel model;
  double a = model.draw(Activity::kSingleTone900, Dbm{-14.0}).value();
  double b = model.draw(Activity::kSingleTone900, Dbm{-4.0}).value();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(PlatformPower, RadioRxDrawMatchesMeasurement) {
  // Table 2 lists 50 mW RX; §5.2 measures 59 mW with the LVDS I/Q
  // interface streaming, which is the mode the model represents.
  PlatformPowerModel model;
  EXPECT_NEAR(model.radio_rx_draw().value(), 59.0, 1e-9);
}

TEST(PlatformPower, RadioTxDrawIsMonotone) {
  PlatformPowerModel model;
  for (auto band : {radio::Band::kSubGhz900, radio::Band::kIsm2400}) {
    double prev = 0.0;
    for (double p = -14.0; p <= 14.0; p += 2.0) {
      double draw = model.radio_tx_draw(band, Dbm{p}).value();
      EXPECT_GE(draw, prev) << p << " dBm";
      prev = draw;
    }
  }
}

TEST(PlatformPower, Fig9BothBandsWithinFewMilliwatts) {
  PlatformPowerModel model;
  for (double p : {-10.0, 0.0, 8.0, 14.0}) {
    double d900 = model.draw(Activity::kSingleTone900, Dbm{p}).value();
    double d2400 = model.draw(Activity::kSingleTone2400, Dbm{p}).value();
    EXPECT_NEAR(d900, d2400, 10.0) << "at " << p << " dBm";
  }
}

TEST(PlatformPower, LoraPacketNumbers) {
  PlatformPowerModel model;
  // §5.2: TX 287 mW at 14 dBm, RX 186 mW, concurrent RX 207 mW.
  EXPECT_NEAR(model.draw(Activity::kLoraTransmit, Dbm{14.0}).value(), 287.0,
              8.0);
  EXPECT_NEAR(model.draw(Activity::kLoraReceive).value(), 186.0, 5.0);
  EXPECT_NEAR(model.draw(Activity::kConcurrentReceive).value(), 207.0, 6.0);
}

TEST(PlatformPower, ConcurrentCostsMoreThanSingle) {
  PlatformPowerModel model;
  EXPECT_GT(model.draw(Activity::kConcurrentReceive).value(),
            model.draw(Activity::kLoraReceive).value());
}

TEST(PlatformPower, UsrpE310ComparisonFactor) {
  // Paper: USRP E310 is 15-16x tinySDR when transmitting.
  PlatformPowerModel model;
  double tinysdr_0dbm = model.draw(Activity::kSingleTone900, Dbm{0.0}).value();
  double usrp_e310_tx_mw = 3700.0;  // ~3.7 W end-to-end
  double factor = usrp_e310_tx_mw / tinysdr_0dbm;
  EXPECT_GT(factor, 14.0);
  EXPECT_LT(factor, 18.0);
}

TEST(PlatformPower, DutyCycledAverageInterpolates) {
  PlatformPowerModel model;
  Milliwatts always_on = model.duty_cycled_average(Activity::kLoraTransmit,
                                                   1.0, Dbm{14.0});
  Milliwatts never_on =
      model.duty_cycled_average(Activity::kLoraTransmit, 0.0, Dbm{14.0});
  EXPECT_NEAR(always_on.value(),
              model.draw(Activity::kLoraTransmit, Dbm{14.0}).value(), 1e-9);
  EXPECT_NEAR(never_on.value(), model.sleep_power().value(), 1e-12);

  // A 0.1% duty cycle (typical IoT sensor) lands in the sub-mW regime —
  // the headline enabled by the 30 uW sleep mode.
  Milliwatts duty =
      model.duty_cycled_average(Activity::kLoraTransmit, 0.001, Dbm{14.0});
  EXPECT_LT(duty.value(), 0.5);
  EXPECT_GT(duty.value(), model.sleep_power().value());
}

TEST(PlatformPower, DutyCycleRejectsBadFraction) {
  PlatformPowerModel model;
  EXPECT_THROW((void)model.duty_cycled_average(Activity::kSleep, 1.5),
               std::invalid_argument);
  EXPECT_THROW((void)model.duty_cycled_average(Activity::kSleep, -0.1),
               std::invalid_argument);
}

TEST(PlatformPower, YearsOfBatteryLifeAtLowDutyCycle) {
  // BLE beacon claim (§5.2): "over 2 years on a 1000 mAh battery when
  // transmitting once per second". Three ~200 us ADV_NONCONN_IND beacons
  // per second = 0.06% duty at the BLE TX operating point.
  PlatformPowerModel model;
  Milliwatts avg =
      model.duty_cycled_average(Activity::kBleTransmit, 0.0006, Dbm{0.0});
  BatteryCapacity battery{1000.0, 3.7};
  double years =
      battery.lifetime_at(avg).value() / (365.25 * 86400.0);
  EXPECT_GT(years, 2.0);
}

TEST(PlatformPower, OtaReceiveCheaperThanIqReceive) {
  PlatformPowerModel model;
  EXPECT_LT(model.draw(Activity::kOtaReceive).value(),
            model.draw(Activity::kLoraReceive).value());
}

}  // namespace
}  // namespace tinysdr::power
