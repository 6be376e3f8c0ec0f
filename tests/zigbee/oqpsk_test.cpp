#include "zigbee/oqpsk.hpp"

#include <gtest/gtest.h>

#include "channel/noise.hpp"
#include "common/rng.hpp"

namespace tinysdr::zigbee {
namespace {

std::vector<std::uint8_t> psdu_bytes() {
  return {0x41, 0x88, 0x01, 0x22, 0x00, 0xFF, 0xFF, 0x42};
}

TEST(ChipTable, SixteenUniqueSequences) {
  const auto& table = chip_table();
  for (std::size_t a = 0; a < 16; ++a)
    for (std::size_t b = a + 1; b < 16; ++b)
      EXPECT_NE(table[a], table[b]) << a << " vs " << b;
}

TEST(ChipTable, Symbol0IsStandardBaseSequence) {
  EXPECT_EQ(chip_table()[0], 0x744AC39Bu);
}

/// Pack chips as nearest_symbol_word expects them (bit i = chip i).
std::uint32_t chip_word(const std::array<bool, kChipsPerSymbol>& chips) {
  std::uint32_t word = 0;
  for (std::size_t i = 0; i < kChipsPerSymbol; ++i)
    word |= static_cast<std::uint32_t>(chips[i] ? 1u : 0u) << i;
  return word;
}

TEST(ChipTable, QuasiOrthogonalDistances) {
  // The standard family's pairwise Hamming distances are large (>= 12),
  // which is what gives the DSSS processing gain.
  const auto& table = chip_table();
  for (std::size_t a = 0; a < 16; ++a)
    for (std::size_t b = a + 1; b < 16; ++b) {
      int d = __builtin_popcount(table[a] ^ table[b]);
      EXPECT_GE(d, 12) << a << " vs " << b;
    }
}

TEST(ChipTable, ChipsForRoundTrip) {
  for (std::uint8_t s = 0; s < 16; ++s) {
    auto chips = chips_for(s);
    auto [decided, dist] = nearest_symbol_word(chip_word(chips));
    EXPECT_EQ(decided, s);
    EXPECT_EQ(dist, 0);
  }
  EXPECT_THROW((void)chips_for(16), std::invalid_argument);
}

TEST(ChipTable, SingleChipErrorsCorrected) {
  // Distance >= 12 means up to 5 chip errors always decode correctly.
  Rng rng{3};
  for (int trial = 0; trial < 50; ++trial) {
    auto s = static_cast<std::uint8_t>(rng.next_below(16));
    auto chips = chips_for(s);
    for (int e = 0; e < 5; ++e)
      chips[rng.next_below(kChipsPerSymbol)] ^= true;
    // (duplicate flips can cancel; decision must still be correct)
    EXPECT_EQ(nearest_symbol_word(chip_word(chips)).first, s);
  }
}

TEST(Fcs16, KnownVector) {
  // ITU CRC-16 (KERMIT family, init 0): "123456789" -> 0x6F91 with this
  // reflected form? Compute a self-consistency + linearity check instead:
  // appending the FCS little-endian and re-running must give 0x0000 after
  // the standard magic check — verify via explicit recompute.
  std::vector<std::uint8_t> data{'1', '2', '3'};
  std::uint16_t fcs = fcs16(data);
  auto with = data;
  with.push_back(static_cast<std::uint8_t>(fcs & 0xFF));
  with.push_back(static_cast<std::uint8_t>(fcs >> 8));
  EXPECT_EQ(fcs16(with), 0x0000);
}

TEST(Fcs16, DetectsBitFlips) {
  auto psdu = psdu_bytes();
  std::uint16_t good = fcs16(psdu);
  for (std::size_t i = 0; i < psdu.size(); ++i) {
    auto bad = psdu;
    bad[i] ^= 0x10;
    EXPECT_NE(fcs16(bad), good);
  }
}

TEST(OqpskModem, FrameSymbolLayout) {
  OqpskModem modem;
  auto symbols = modem.frame_symbols(psdu_bytes());
  // (4 preamble + 1 SFD + 1 PHR + 8 PSDU + 2 FCS) * 2 nibbles.
  EXPECT_EQ(symbols.size(), 32u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(symbols[static_cast<std::size_t>(i)], 0x0);
  EXPECT_EQ(symbols[8], 0x7);  // SFD low nibble first
  EXPECT_EQ(symbols[9], 0xA);
}

TEST(OqpskModem, RejectsOversizePsdu) {
  OqpskModem modem;
  EXPECT_THROW(modem.frame_symbols(std::vector<std::uint8_t>(126, 0)),
               std::invalid_argument);
}

TEST(OqpskModem, WaveformNearConstantEnvelope) {
  // Half-sine O-QPSK is MSK-like: envelope ripple stays small.
  OqpskModem modem;
  auto iq = modem.modulate(psdu_bytes());
  double min_mag = 1e9, max_mag = 0.0;
  // Skip the ramp-in/out where only one rail is active.
  for (std::size_t i = 8; i + 8 < iq.size(); ++i) {
    double m = std::abs(iq[i]);
    min_mag = std::min(min_mag, m);
    max_mag = std::max(max_mag, m);
  }
  EXPECT_GT(min_mag, 0.6);
  EXPECT_LT(max_mag, 1.5);
}

TEST(OqpskModem, CleanLoopback) {
  OqpskModem modem;
  auto iq = modem.modulate(psdu_bytes());
  auto rx = modem.demodulate(iq);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, psdu_bytes());
}

TEST(OqpskModem, LoopbackWithArbitraryPadding) {
  OqpskModem modem;
  auto iq = modem.modulate(psdu_bytes());
  for (std::size_t pad : {1ul, 3ul, 7ul, 10ul}) {
    dsp::Samples padded(pad, dsp::Complex{0, 0});
    padded.insert(padded.end(), iq.begin(), iq.end());
    padded.insert(padded.end(), 16, dsp::Complex{0, 0});
    auto rx = modem.demodulate(padded);
    ASSERT_TRUE(rx.has_value()) << "pad " << pad;
    EXPECT_EQ(*rx, psdu_bytes()) << "pad " << pad;
  }
}

TEST(OqpskModem, LoopbackUnderNoise) {
  // DSSS processing gain: decodes comfortably at moderate RSSI. Noise
  // floor over 4 MHz ~ -102 dBm; 802.15.4 sensitivity spec is -85 dBm.
  OqpskModem modem;
  OqpskConfig cfg;
  auto iq = modem.modulate(psdu_bytes());
  Rng rng{7};
  channel::AwgnChannel chan{cfg.sample_rate(), 6.0, rng};
  auto noisy = chan.apply(iq, Dbm{-85.0});
  auto rx = modem.demodulate(noisy);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, psdu_bytes());
}

TEST(OqpskModem, FailsDeepBelowSensitivity) {
  OqpskModem modem;
  OqpskConfig cfg;
  auto iq = modem.modulate(psdu_bytes());
  Rng rng{8};
  channel::AwgnChannel chan{cfg.sample_rate(), 6.0, rng};
  auto noisy = chan.apply(iq, Dbm{-110.0});
  auto rx = modem.demodulate(noisy);
  if (rx) {
    EXPECT_NE(*rx, psdu_bytes());
  }
}

TEST(OqpskModem, AirtimeAt250kbps) {
  OqpskModem modem;
  // 16-byte PPDU = 32 symbols / 62.5k = 512 us.
  EXPECT_NEAR(modem.airtime(8).microseconds(), 512.0, 1e-6);
}

TEST(OqpskModem, RunsAtRadioSampleRate) {
  // 2 samples/chip at 2 Mchip/s = the AT86RF215's 4 MHz I/Q rate.
  OqpskConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.sample_rate().value(), 4e6);
}

class PsduSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PsduSweep, RoundTripSizes) {
  OqpskModem modem;
  Rng rng{GetParam()};
  std::vector<std::uint8_t> psdu(GetParam());
  for (auto& b : psdu) b = rng.next_byte();
  auto rx = modem.demodulate(modem.modulate(psdu));
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, psdu);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PsduSweep,
                         ::testing::Values(0, 1, 20, 64, 123));

}  // namespace
}  // namespace tinysdr::zigbee
