#include "radio/at86rf215.hpp"

#include <gtest/gtest.h>

#include "dsp/nco.hpp"

namespace tinysdr::radio {
namespace {

TEST(BandOf, CoversDatasheetBands) {
  EXPECT_EQ(band_of(Hertz::from_megahertz(433.0)), Band::kSubGhz400);
  EXPECT_EQ(band_of(Hertz::from_megahertz(915.0)), Band::kSubGhz900);
  EXPECT_EQ(band_of(Hertz::from_megahertz(2440.0)), Band::kIsm2400);
  EXPECT_FALSE(band_of(Hertz::from_megahertz(600.0)).has_value());
  EXPECT_FALSE(band_of(Hertz::from_megahertz(5800.0)).has_value());
}

TEST(BandOf, EdgeFrequencies) {
  EXPECT_TRUE(band_of(Hertz::from_megahertz(389.5)).has_value());
  EXPECT_TRUE(band_of(Hertz::from_megahertz(510.0)).has_value());
  EXPECT_TRUE(band_of(Hertz::from_megahertz(779.0)).has_value());
  EXPECT_TRUE(band_of(Hertz::from_megahertz(1020.0)).has_value());
  EXPECT_TRUE(band_of(Hertz::from_megahertz(2400.0)).has_value());
  EXPECT_FALSE(band_of(Hertz::from_megahertz(2484.0)).has_value());
}

TEST(At86rf215, RejectsOutOfBandTuning) {
  At86rf215 radio;
  EXPECT_THROW(radio.set_frequency(Hertz::from_megahertz(1500.0)),
               std::invalid_argument);
}

TEST(At86rf215, RejectsOutOfRangeTxPower) {
  At86rf215 radio;
  EXPECT_THROW(radio.set_tx_power(Dbm{20.0}), std::invalid_argument);
  EXPECT_THROW(radio.set_tx_power(Dbm{-30.0}), std::invalid_argument);
  EXPECT_NO_THROW(radio.set_tx_power(Dbm{14.0}));
}

TEST(At86rf215, StateMachineTransitions) {
  At86rf215 radio;
  EXPECT_EQ(radio.state(), RadioState::kSleep);
  EXPECT_THROW(radio.enter_tx(), std::logic_error);

  Seconds wake = radio.wake();
  EXPECT_NEAR(wake.milliseconds(), 1.2, 1e-9);  // radio setup (Table 4)
  EXPECT_EQ(radio.state(), RadioState::kTrxOff);

  radio.enter_tx();
  EXPECT_EQ(radio.state(), RadioState::kTx);
  Seconds tx_to_rx = radio.enter_rx();
  EXPECT_NEAR(tx_to_rx.microseconds(), 45.0, 1e-6);
  Seconds rx_to_tx = radio.enter_tx();
  EXPECT_NEAR(rx_to_tx.microseconds(), 11.0, 1e-6);
}

TEST(At86rf215, FrequencySwitchTiming) {
  At86rf215 radio;
  radio.wake();
  radio.enter_tx();
  Seconds t = radio.retune(Hertz::from_megahertz(2402.0));
  EXPECT_NEAR(t.microseconds(), 220.0, 1e-6);
  EXPECT_EQ(radio.band(), Band::kIsm2400);
}

TEST(At86rf215, TransitionTimeAccrues) {
  At86rf215 radio;
  radio.wake();
  radio.enter_rx();
  radio.enter_tx();
  radio.retune(Hertz::from_megahertz(916.0));
  EXPECT_GT(radio.transition_time().value(), 0.0012);
}

TEST(At86rf215, TransmitRequiresTxState) {
  At86rf215 radio;
  radio.wake();
  dsp::Samples tone = dsp::generate_tone(0.01, 64);
  EXPECT_THROW((void)radio.transmit(tone), std::logic_error);
  radio.enter_tx();
  EXPECT_NO_THROW((void)radio.transmit(tone));
}

TEST(At86rf215, ReceiveQuantizesButPreservesSignal) {
  At86rf215 radio;
  radio.wake();
  radio.enter_rx();
  auto tone = dsp::generate_tone(0.05, 1024);
  auto rx = radio.receive(tone);
  ASSERT_EQ(rx.size(), tone.size());
  double err = 0.0, sig = 0.0;
  for (std::size_t i = 0; i < tone.size(); ++i) {
    err += std::norm(rx[i] - tone[i]);
    sig += std::norm(tone[i]);
  }
  EXPECT_GT(10.0 * std::log10(sig / err), 55.0);
}

TEST(At86rf215, AgcHandlesWeakSignals) {
  // A signal 60 dB below full scale must survive the ADC thanks to AGC.
  At86rf215 radio;
  radio.wake();
  radio.enter_rx();
  auto tone = dsp::generate_tone(0.05, 1024);
  for (auto& s : tone) s *= 1e-3f;  // -60 dB
  auto rx = radio.receive(tone);
  double err = 0.0, sig = 0.0;
  for (std::size_t i = 0; i < tone.size(); ++i) {
    err += std::norm(rx[i] - tone[i]);
    sig += std::norm(tone[i]);
  }
  EXPECT_GT(10.0 * std::log10(sig / err), 40.0);
}

}  // namespace
}  // namespace tinysdr::radio
