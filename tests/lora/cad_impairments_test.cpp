// Channel activity detection and RF front-end impairment tolerance.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/noise.hpp"
#include "impair/impair.hpp"
#include "lora/demodulator.hpp"
#include "lora/modulator.hpp"
#include "radio/at86rf215.hpp"

namespace tinysdr::lora {
namespace {

LoraParams sf8() { return LoraParams{8, Hertz::from_kilohertz(125.0)}; }
Hertz bw125() { return Hertz::from_kilohertz(125.0); }

TEST(Cad, DetectsPreambleQuickly) {
  Modulator mod{sf8(), bw125()};
  Demodulator demod{sf8(), bw125()};
  auto wave = mod.preamble_waveform();
  EXPECT_TRUE(demod.channel_activity(wave));
}

TEST(Cad, QuietOnNoise) {
  Demodulator demod{sf8(), bw125()};
  Rng rng{3};
  channel::AwgnChannel chan{bw125(), 6.0, rng};
  auto noise = chan.noise_only(1024, chan.floor());
  EXPECT_FALSE(demod.channel_activity(noise));
}

TEST(Cad, DetectsNearSensitivity) {
  Modulator mod{sf8(), bw125()};
  Demodulator demod{sf8(), bw125()};
  Rng rng{5};
  channel::AwgnChannel chan{bw125(), 6.0, rng};
  auto noisy = chan.apply(mod.preamble_waveform(), Dbm{-120.0});
  EXPECT_TRUE(demod.channel_activity(noisy));
}

TEST(Cad, ShortInputHandled) {
  Demodulator demod{sf8(), bw125()};
  dsp::Samples tiny(10, dsp::Complex{1, 0});
  EXPECT_FALSE(demod.channel_activity(tiny));
}

TEST(Cad, MissesMidPacketDownchirps) {
  // CAD correlates with the upchirp; an SFD window doesn't fire it.
  Demodulator demod{sf8(), bw125()};
  ChirpGenerator gen{sf8(), bw125()};
  auto down = gen.symbol(0, ChirpDirection::kDown);
  dsp::Samples two;
  two.insert(two.end(), down.begin(), down.end());
  two.insert(two.end(), down.begin(), down.end());
  EXPECT_FALSE(demod.channel_activity(two));
}

// ------------------------------------------------------------- impairments

/// Front-end defects as impair:: blocks, in the order IQ imbalance, DC
/// offset, CFO, ahead of the AT86RF215's AGC and ADC. The DC leak is a
/// fraction of the input's RMS and lands on both rails; the CFO is in Hz
/// at the 125 kHz sample rate.
struct FrontEnd {
  double dc_fraction = 0.0;
  double iq_gain_db = 0.0;
  double iq_phase_deg = 0.0;
  double cfo_hz = 0.0;
};

dsp::Samples through_radio(dsp::Samples wave, const FrontEnd& fe) {
  radio::At86rf215Config cfg;
  cfg.sample_rate = Hertz::from_kilohertz(125.0);
  const auto dc = static_cast<float>(
      fe.dc_fraction * std::sqrt(dsp::mean_power(wave)));
  const impair::IqImbalance iq{fe.iq_gain_db, fe.iq_phase_deg};
  const impair::DcOffset leak{{dc, dc}};
  const impair::CfoDrift cfo{fe.cfo_hz / cfg.sample_rate.value()};
  impair::apply_stage({{&iq, impair::Stage::kRx},
                       {&leak, impair::Stage::kRx},
                       {&cfo, impair::Stage::kRx}},
                      impair::Stage::kRx, wave, 0, 0);
  radio::At86rf215 radio{cfg};
  radio.wake();
  radio.enter_rx();
  return radio.receive(wave);
}

TEST(Impairments, SmallDcOffsetTolerated) {
  Modulator mod{sf8(), bw125()};
  Demodulator demod{sf8(), bw125()};
  std::vector<std::uint8_t> payload{0xAB, 0xCD};
  auto wave = mod.modulate(payload);
  dsp::Samples padded(300, dsp::Complex{0, 0});
  padded.insert(padded.end(), wave.begin(), wave.end());
  padded.insert(padded.end(), 300, dsp::Complex{0, 0});

  auto rx = through_radio(padded, {.dc_fraction = 0.05});  // -26 dB DC leak
  auto result = demod.receive(rx);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->packet.payload, payload);
}

TEST(Impairments, ModerateIqImbalanceTolerated) {
  // CSS is famously robust to quadrature errors; 1 dB / 5 deg must pass.
  Modulator mod{sf8(), bw125()};
  Demodulator demod{sf8(), bw125()};
  std::vector<std::uint8_t> payload{0x42, 0x24, 0x11};
  auto wave = mod.modulate(payload);
  dsp::Samples padded(300, dsp::Complex{0, 0});
  padded.insert(padded.end(), wave.begin(), wave.end());
  padded.insert(padded.end(), 300, dsp::Complex{0, 0});

  auto rx = through_radio(padded, {.iq_gain_db = 1.0, .iq_phase_deg = 5.0});
  auto result = demod.receive(rx);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->packet.payload, payload);
}

TEST(Impairments, SmallCfoToleratedThroughRadio) {
  Modulator mod{sf8(), bw125()};
  Demodulator demod{sf8(), bw125()};
  std::vector<std::uint8_t> payload{0x77};
  auto wave = mod.modulate(payload);
  dsp::Samples padded(300, dsp::Complex{0, 0});
  padded.insert(padded.end(), wave.begin(), wave.end());
  padded.insert(padded.end(), 300, dsp::Complex{0, 0});

  auto rx = through_radio(padded, {.cfo_hz = 150.0});  // ~0.3 bin at SF8/BW125
  auto result = demod.receive(rx);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->packet.payload, payload);
}

TEST(Impairments, GrossImbalanceDistortsButCssStillDecodes) {
  // Sanity that the impairment model really modifies the waveform (huge
  // EVM) — and a CSS robustness highlight: even with the DC term dwarfing
  // the signal and the Q rail nearly dead, the noise-free dechirp+FFT
  // still finds the peak. (The impairments cost real sensitivity; that
  // margin is what the AWGN benches price in.)
  Modulator mod{sf8(), bw125()};
  Demodulator demod{sf8(), bw125()};
  std::vector<std::uint8_t> payload{0x13, 0x37};
  auto wave = mod.modulate(payload);

  auto rx = through_radio(wave, {.dc_fraction = 3.0,   // DC dwarfs the signal
                                 .iq_gain_db = -30.0}); // Q rail nearly dead

  double evm = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < wave.size(); ++i) {
    evm += std::norm(rx[i] - wave[i]);
    ref += std::norm(wave[i]);
  }
  EXPECT_GT(evm / ref, 1.0);  // more distortion energy than signal

  auto result = demod.receive(rx);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->packet.payload, payload);
}

}  // namespace
}  // namespace tinysdr::lora
