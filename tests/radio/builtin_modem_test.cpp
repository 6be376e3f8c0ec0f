#include "radio/builtin_modem.hpp"

#include <gtest/gtest.h>

#include "channel/noise.hpp"
#include "common/rng.hpp"

namespace tinysdr::radio {
namespace {

std::vector<std::uint8_t> payload_bytes() {
  return {0x11, 0x22, 0x33, 0x44, 0x55, 0x66};
}

TEST(BuiltinFskModem, FrameStructure) {
  BuiltinFskModem modem;
  auto bits = modem.frame_bits(payload_bytes());
  // preamble(4B) + SFD(2B) + PHR(2B) + payload(6B) + FCS(2B) = 16 B.
  EXPECT_EQ(bits.size(), 16u * 8u);
}

TEST(BuiltinFskModem, RejectsOversizePayload) {
  BuiltinFskModem modem;
  EXPECT_THROW(modem.frame_bits(std::vector<std::uint8_t>(2048, 0)),
               std::invalid_argument);
}

TEST(BuiltinFskModem, ConstantEnvelopeModulation) {
  BuiltinFskModem modem;
  auto iq = modem.modulate(payload_bytes());
  for (const auto& s : iq) EXPECT_NEAR(std::abs(s), 1.0f, 2e-3);
}

TEST(BuiltinFskModem, CleanLoopback) {
  BuiltinFskModem modem;
  auto iq = modem.modulate(payload_bytes());
  auto rx = modem.demodulate(iq);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload_bytes());
}

TEST(BuiltinFskModem, LoopbackWithNoise) {
  BuiltinFskModem modem;
  MrFskConfig cfg;
  auto iq = modem.modulate(payload_bytes());
  Rng rng{9};
  channel::AwgnChannel chan{cfg.sample_rate(), 6.0, rng};
  // MR-FSK at 50 kb/s: noise floor over 400 kHz ~ -112 dBm; -95 dBm is
  // a comfortable 17 dB of SNR.
  auto noisy = chan.apply(iq, Dbm{-95.0});
  auto rx = modem.demodulate(noisy);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload_bytes());
}

TEST(BuiltinFskModem, FailsInHeavyNoise) {
  BuiltinFskModem modem;
  MrFskConfig cfg;
  auto iq = modem.modulate(payload_bytes());
  Rng rng{10};
  channel::AwgnChannel chan{cfg.sample_rate(), 6.0, rng};
  auto noisy = chan.apply(iq, Dbm{-125.0});  // far below the FSK floor
  auto rx = modem.demodulate(noisy);
  if (rx) {
    EXPECT_NE(*rx, payload_bytes());
  }
}

TEST(BuiltinFskModem, CorruptedFcsRejected) {
  BuiltinFskModem modem;
  auto iq = modem.modulate(payload_bytes());
  // Invert a chunk of samples mid-payload: flips bits, FCS must catch it.
  for (std::size_t i = iq.size() / 2; i < iq.size() / 2 + 64; ++i)
    iq[i] = std::conj(iq[i]);
  auto rx = modem.demodulate(iq);
  if (rx) {
    EXPECT_NE(*rx, payload_bytes());
  }
}

TEST(BuiltinFskModem, AirtimeAt50kbps) {
  BuiltinFskModem modem;
  // 16 bytes at 50 kb/s = 2.56 ms.
  EXPECT_NEAR(modem.airtime(6).milliseconds(), 2.56, 1e-9);
}

TEST(BuiltinFskModem, EmptyPayloadRoundTrip) {
  BuiltinFskModem modem;
  std::vector<std::uint8_t> empty;
  auto rx = modem.demodulate(modem.modulate(empty));
  ASSERT_TRUE(rx.has_value());
  EXPECT_TRUE(rx->empty());
}

class FskPayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FskPayloadSweep, RoundTripAcrossSizes) {
  BuiltinFskModem modem;
  Rng rng{GetParam()};
  std::vector<std::uint8_t> payload(GetParam());
  for (auto& b : payload) b = rng.next_byte();
  auto rx = modem.demodulate(modem.modulate(payload));
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FskPayloadSweep,
                         ::testing::Values(1, 16, 64, 127, 255));

}  // namespace
}  // namespace tinysdr::radio
