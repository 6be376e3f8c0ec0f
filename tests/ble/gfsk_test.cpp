#include "ble/gfsk.hpp"

#include <gtest/gtest.h>

#include "channel/noise.hpp"
#include "common/rng.hpp"
#include "dsp/fft.hpp"

namespace tinysdr::ble {
namespace {

std::vector<bool> random_bits(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = rng.next_bool(0.5);
  return bits;
}

TEST(GfskConfig, BleDefaults) {
  GfskConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.bitrate, 1e6);
  EXPECT_DOUBLE_EQ(cfg.deviation_hz(), 250e3);  // h=0.5 at 1 Mbps
  EXPECT_DOUBLE_EQ(cfg.sample_rate().value(), 4e6);
}

TEST(GfskModulator, ConstantEnvelope) {
  GfskModulator mod;
  auto iq = mod.modulate(random_bits(64, 1));
  for (const auto& s : iq) EXPECT_NEAR(std::abs(s), 1.0f, 2e-3);
}

TEST(GfskModulator, AlternatingBitsGiveToneAtHalfBitrate) {
  // 1010... FSK alternation concentrates energy near +-250 kHz after
  // shaping; mean frequency stays near 0.
  GfskModulator mod;
  std::vector<bool> bits;
  for (int i = 0; i < 128; ++i) bits.push_back(i % 2);
  auto iq = mod.modulate(bits);
  double mean_freq = 0.0;
  for (std::size_t i = 1; i < iq.size(); ++i)
    mean_freq += std::arg(iq[i] * std::conj(iq[i - 1]));
  EXPECT_NEAR(mean_freq / static_cast<double>(iq.size() - 1), 0.0, 0.05);
}

TEST(GfskModulator, AllOnesRampsPhaseAtDeviation) {
  GfskConfig cfg;
  GfskModulator mod{cfg};
  auto iq = mod.modulate(std::vector<bool>(64, true));
  // Steady-state per-sample phase step = 2*pi*dev/fs.
  double expected = 2.0 * 3.14159265358979 * cfg.deviation_hz() /
                    cfg.sample_rate().value();
  // Skip the Gaussian ramp-in.
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 60; i < iq.size() - 10; ++i) {
    acc += std::arg(iq[i] * std::conj(iq[i - 1]));
    ++count;
  }
  EXPECT_NEAR(acc / static_cast<double>(count), expected, expected * 0.02);
}

TEST(GfskLoopback, CleanChannelBitExact) {
  GfskModulator mod;
  GfskDemodulator demod;
  auto bits = random_bits(256, 7);
  auto iq = mod.modulate(bits);
  std::size_t timing = demod.estimate_timing(iq);
  auto rx = demod.demodulate(iq, timing);
  ASSERT_GE(rx.size(), bits.size() - 4);
  EXPECT_DOUBLE_EQ(aligned_ber(bits, rx), 0.0);
}

TEST(GfskLoopback, HighSnrLowBer) {
  GfskModulator mod;
  GfskDemodulator demod;
  GfskConfig cfg;
  Rng rng{42};
  channel::AwgnChannel chan{cfg.sample_rate(), 5.5, rng};
  auto bits = random_bits(2000, 13);
  auto iq = mod.modulate(bits);
  auto noisy = chan.apply(iq, Dbm{-70.0});  // strong signal
  auto rx = demod.demodulate(noisy, demod.estimate_timing(noisy));
  EXPECT_LT(aligned_ber(bits, rx), 1e-3);
}

TEST(GfskLoopback, BerDegradesGracefullyWithRssi) {
  GfskModulator mod;
  GfskDemodulator demod;
  GfskConfig cfg;
  auto bits = random_bits(3000, 17);
  auto iq = mod.modulate(bits);

  auto ber_at = [&](double rssi) {
    Rng rng{99};
    channel::AwgnChannel chan{cfg.sample_rate(), 5.5, rng};
    auto noisy = chan.apply(iq, Dbm{rssi});
    auto rx = demod.demodulate(noisy, demod.estimate_timing(noisy));
    return aligned_ber(bits, rx);
  };
  double strong = ber_at(-80.0);
  double weak = ber_at(-97.0);
  double very_weak = ber_at(-104.0);
  EXPECT_LE(strong, weak);
  EXPECT_LT(weak, very_weak);
  EXPECT_GT(very_weak, 0.01);
}

}  // namespace
}  // namespace tinysdr::ble
