#include "sigfox/unb.hpp"

#include <gtest/gtest.h>

#include "channel/noise.hpp"
#include "common/rng.hpp"

namespace tinysdr::sigfox {
namespace {

std::vector<std::uint8_t> payload_bytes() {
  return {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB};
}

TEST(UnbConfig, UltraNarrowband) {
  UnbConfig cfg;
  // Occupied bandwidth ~200 Hz — the paper's Sigfox figure.
  EXPECT_NEAR(cfg.occupied_bandwidth().value(), 200.0, 1e-9);
  EXPECT_DOUBLE_EQ(cfg.sample_rate().value(), 800.0);
}

TEST(UnbModem, RejectsOversizePayload) {
  UnbModem modem;
  EXPECT_THROW(modem.frame_bits(std::vector<std::uint8_t>(13, 0)),
               std::invalid_argument);
}

TEST(UnbModem, FrameBitBudget) {
  UnbModem modem;
  // 20 + 16 + 4 + 6*8 + 16 = 104 bits.
  EXPECT_EQ(modem.frame_bits(payload_bytes()).size(), 104u);
}

TEST(UnbModem, ConstantEnvelopeOutsideTransitions) {
  UnbModem modem;
  auto iq = modem.modulate(payload_bytes());
  for (const auto& s : iq) EXPECT_NEAR(std::abs(s), 1.0f, 1e-3);
}

TEST(UnbModem, CleanLoopback) {
  UnbModem modem;
  auto iq = modem.modulate(payload_bytes());
  auto rx = modem.demodulate(iq);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload_bytes());
}

TEST(UnbModem, LoopbackWithPaddingAndPhaseRotation) {
  UnbModem modem;
  auto iq = modem.modulate(payload_bytes());
  // Differential detection must survive an arbitrary constant phase (no
  // carrier recovery needed) and arbitrary sample padding.
  dsp::Complex rot{0.2588f, 0.9659f};  // 75 degrees
  for (auto& s : iq) s *= rot;
  dsp::Samples padded(5, dsp::Complex{0, 0});
  padded.insert(padded.end(), iq.begin(), iq.end());
  padded.insert(padded.end(), 11, dsp::Complex{0, 0});
  auto rx = modem.demodulate(padded);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload_bytes());
}

TEST(UnbModem, LoopbackUnderNoise) {
  // 800 Hz noise bandwidth: floor = -174 + 29 + 6 = -139 dBm. Sigfox's
  // headline sensitivity (~-140 dBm class) comes exactly from this tiny
  // bandwidth. Decode at -130 dBm.
  UnbModem modem;
  UnbConfig cfg;
  auto iq = modem.modulate(payload_bytes());
  Rng rng{5};
  channel::AwgnChannel chan{cfg.sample_rate(), 6.0, rng};
  auto noisy = chan.apply(iq, Dbm{-130.0});
  auto rx = modem.demodulate(noisy);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload_bytes());
}

TEST(UnbModem, FailsFarBelowFloor) {
  UnbModem modem;
  UnbConfig cfg;
  auto iq = modem.modulate(payload_bytes());
  Rng rng{6};
  channel::AwgnChannel chan{cfg.sample_rate(), 6.0, rng};
  auto noisy = chan.apply(iq, Dbm{-148.0});
  auto rx = modem.demodulate(noisy);
  if (rx) {
    EXPECT_NE(*rx, payload_bytes());
  }
}

TEST(UnbModem, AirtimeIsSeconds) {
  UnbModem modem;
  // 12-byte frame: 153 bits at 100 bps ~ 1.5 s (Sigfox frames really do
  // take seconds).
  EXPECT_NEAR(modem.airtime(12).value(), 1.53, 0.01);
}

TEST(UnbModem, EmptyPayloadRoundTrip) {
  UnbModem modem;
  std::vector<std::uint8_t> empty;
  auto rx = modem.demodulate(modem.modulate(empty));
  ASSERT_TRUE(rx.has_value());
  EXPECT_TRUE(rx->empty());
}

class SigfoxPayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SigfoxPayloadSweep, RoundTrip) {
  UnbModem modem;
  Rng rng{GetParam() + 77};
  std::vector<std::uint8_t> payload(GetParam());
  for (auto& b : payload) b = rng.next_byte();
  auto rx = modem.demodulate(modem.modulate(payload));
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SigfoxPayloadSweep,
                         ::testing::Values(1, 4, 8, 12));

}  // namespace
}  // namespace tinysdr::sigfox
