#include "nbiot/uplink.hpp"

#include <gtest/gtest.h>

#include "channel/noise.hpp"
#include "common/rng.hpp"

namespace tinysdr::nbiot {
namespace {

std::vector<std::uint8_t> payload_bytes() { return {0xDE, 0xAD, 0x10, 0x01}; }

TEST(SingleToneConfig, NarrowestCellularUplink) {
  SingleToneConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.occupied_bandwidth().value(), 3750.0);
  EXPECT_DOUBLE_EQ(cfg.sample_rate().value(), 30000.0);
}

TEST(SingleToneModem, PilotSequenceFixedAndBalanced) {
  const auto& pilots = SingleToneModem::pilot_bits();
  ASSERT_EQ(pilots.size(), kPilotSymbols);
  int ones = 0;
  for (bool b : pilots) ones += b ? 1 : 0;
  EXPECT_GT(ones, 4);
  EXPECT_LT(ones, 12);
  // Deterministic across calls.
  EXPECT_EQ(SingleToneModem::pilot_bits(), pilots);
}

TEST(SingleToneModem, Pi2BpskConstantEnvelope) {
  SingleToneModem modem;
  auto iq = modem.modulate(payload_bytes());
  for (const auto& s : iq) EXPECT_NEAR(std::abs(s), 1.0f, 1e-5);
}

TEST(SingleToneModem, Pi2RotationBoundsPhaseSteps) {
  // pi/2-BPSK never transits through the origin: consecutive symbols
  // differ by at most 135 degrees of phase.
  SingleToneModem modem;
  SingleToneConfig cfg;
  auto iq = modem.modulate(payload_bytes());
  for (std::size_t k = cfg.samples_per_symbol; k < iq.size();
       k += cfg.samples_per_symbol) {
    auto rot = iq[k] * std::conj(iq[k - 1]);
    EXPECT_GT(std::abs(rot), 0.1f);  // no zero crossing
  }
}

TEST(SingleToneModem, CleanLoopback) {
  SingleToneModem modem;
  auto rx = modem.demodulate(modem.modulate(payload_bytes()));
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload_bytes());
}

TEST(SingleToneModem, LoopbackWithPaddingAndPhase) {
  SingleToneModem modem;
  auto iq = modem.modulate(payload_bytes());
  dsp::Complex rot{0.7071f, 0.7071f};
  for (auto& s : iq) s *= rot;  // unknown channel phase
  dsp::Samples padded(13, dsp::Complex{0, 0});
  padded.insert(padded.end(), iq.begin(), iq.end());
  padded.insert(padded.end(), 21, dsp::Complex{0, 0});
  auto rx = modem.demodulate(padded);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload_bytes());
}

TEST(SingleToneModem, LoopbackUnderNoise) {
  // 30 kHz sampling: floor -174+45+6 = -123 dBm; NB-IoT-class links decode
  // deep below LoRa's 125 kHz floor. Test at -115 dBm.
  SingleToneModem modem;
  SingleToneConfig cfg;
  auto iq = modem.modulate(payload_bytes());
  Rng rng{3};
  channel::AwgnChannel chan{cfg.sample_rate(), 6.0, rng};
  auto noisy = chan.apply(iq, Dbm{-115.0});
  auto rx = modem.demodulate(noisy);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload_bytes());
}

TEST(SingleToneModem, FailsDeepBelowFloor) {
  SingleToneModem modem;
  SingleToneConfig cfg;
  auto iq = modem.modulate(payload_bytes());
  Rng rng{4};
  channel::AwgnChannel chan{cfg.sample_rate(), 6.0, rng};
  auto noisy = chan.apply(iq, Dbm{-135.0});
  auto rx = modem.demodulate(noisy);
  if (rx) {
    EXPECT_NE(*rx, payload_bytes());
  }
}

TEST(SingleToneModem, RejectsOversizePayload) {
  SingleToneModem modem;
  EXPECT_THROW(modem.frame_bits(std::vector<std::uint8_t>(126, 0)),
               std::invalid_argument);
}

TEST(SingleToneModem, AirtimeScales) {
  SingleToneModem modem;
  // 4-byte payload: 16+8+32+16 = 72 symbols / 3750 = 19.2 ms.
  EXPECT_NEAR(modem.airtime(4).milliseconds(), 19.2, 1e-6);
  EXPECT_GT(modem.airtime(100).value(), modem.airtime(4).value());
}

class NbiotPayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NbiotPayloadSweep, RoundTrip) {
  SingleToneModem modem;
  Rng rng{GetParam() + 31};
  std::vector<std::uint8_t> payload(GetParam());
  for (auto& b : payload) b = rng.next_byte();
  auto rx = modem.demodulate(modem.modulate(payload));
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NbiotPayloadSweep,
                         ::testing::Values(0, 1, 16, 64, 125));

}  // namespace
}  // namespace tinysdr::nbiot
