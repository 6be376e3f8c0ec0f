#include "lora/packet.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace tinysdr::lora {
namespace {

LoraParams sf8() { return LoraParams{8, Hertz::from_kilohertz(125.0)}; }

std::vector<std::uint8_t> random_payload(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint8_t> p(n);
  for (auto& b : p) b = rng.next_byte();
  return p;
}

TEST(PacketCodec, EncodeDecodeRoundTrip) {
  PacketCodec codec{sf8()};
  auto payload = random_payload(20, 1);
  auto encoded = codec.encode(payload);
  auto decoded = codec.decode(encoded.symbols);
  EXPECT_TRUE(decoded.header_valid);
  EXPECT_TRUE(decoded.crc_valid);
  EXPECT_EQ(decoded.payload, payload);
}

TEST(PacketCodec, ThreeBytePayloadFromPaperEvaluation) {
  // §5.2 evaluates "packets with three byte payloads using SF = 8".
  PacketCodec codec{sf8()};
  std::vector<std::uint8_t> payload{0xCA, 0xFE, 0x42};
  auto decoded = codec.decode(codec.encode(payload).symbols);
  EXPECT_TRUE(decoded.crc_valid);
  EXPECT_EQ(decoded.payload, payload);
}

TEST(PacketCodec, EmptyPayload) {
  PacketCodec codec{sf8()};
  std::vector<std::uint8_t> empty;
  auto decoded = codec.decode(codec.encode(empty).symbols);
  EXPECT_TRUE(decoded.header_valid);
  EXPECT_TRUE(decoded.crc_valid);
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(PacketCodec, MaxPayload) {
  PacketCodec codec{sf8()};
  auto payload = random_payload(kMaxPayload, 2);
  auto decoded = codec.decode(codec.encode(payload).symbols);
  EXPECT_EQ(decoded.payload, payload);
  EXPECT_THROW(codec.encode(random_payload(256, 3)), std::invalid_argument);
}

TEST(PacketCodec, SymbolValuesWithinRange) {
  PacketCodec codec{sf8()};
  auto encoded = codec.encode(random_payload(64, 4));
  for (auto s : encoded.symbols) EXPECT_LT(s, 256u);
}

TEST(PacketCodec, SymbolCountPredictionMatches) {
  PacketCodec codec{sf8()};
  for (std::size_t n : {0ul, 1ul, 3ul, 17ul, 60ul, 255ul}) {
    auto encoded = codec.encode(random_payload(n, 5 + n));
    EXPECT_EQ(encoded.symbols.size(), codec.symbol_count(n)) << n << " bytes";
  }
}

TEST(PacketCodec, HeaderChecksumCatchesCorruption) {
  PacketCodec codec{sf8()};
  auto encoded = codec.encode(random_payload(10, 6));
  // Clobber the first (header-block) symbol hard.
  auto symbols = encoded.symbols;
  symbols[0] = (symbols[0] + 64) % 256;
  symbols[1] = (symbols[1] + 64) % 256;
  symbols[2] = (symbols[2] + 64) % 256;
  auto decoded = codec.decode(symbols);
  // Either the Hamming layer fixed it (ok) or the header must be flagged.
  if (!decoded.header_valid) SUCCEED();
  // Never silently mis-parse into a *valid* wrong packet: if header valid,
  // payload must still CRC-check.
  if (decoded.header_valid) {
    EXPECT_TRUE(decoded.crc_valid);
  }
}

TEST(PacketCodec, CrcCatchesPayloadCorruption) {
  PacketCodec codec{sf8()};
  auto encoded = codec.encode(random_payload(32, 7));
  auto symbols = encoded.symbols;
  // Corrupt a payload-region symbol by a large shift (beyond Hamming's
  // single-bit correction ability).
  symbols[10] = (symbols[10] + 100) % 256;
  symbols[11] = (symbols[11] + 100) % 256;
  auto decoded = codec.decode(symbols);
  if (decoded.header_valid) {
    EXPECT_FALSE(decoded.crc_valid);
  }
}

TEST(PacketCodec, PlusMinusOneBinErrorsCorrected) {
  // The Gray + Hamming design goal: a +-1 FFT bin error on any one symbol
  // per block decodes clean.
  LoraParams p = sf8();
  p.cr = CodingRate::kCr48;
  PacketCodec codec{p};
  auto payload = random_payload(24, 8);
  auto encoded = codec.encode(payload);
  for (std::size_t victim = 0; victim < encoded.symbols.size();
       victim += 9) {
    auto symbols = encoded.symbols;
    symbols[victim] = (symbols[victim] + 1) % 256;
    auto decoded = codec.decode(symbols);
    EXPECT_TRUE(decoded.crc_valid) << "victim symbol " << victim;
    EXPECT_EQ(decoded.payload, payload);
  }
}

TEST(PacketCodec, AllCodingRates) {
  for (auto cr : {CodingRate::kCr45, CodingRate::kCr46, CodingRate::kCr47,
                  CodingRate::kCr48}) {
    LoraParams p = sf8();
    p.cr = cr;
    PacketCodec codec{p};
    auto payload = random_payload(30, static_cast<std::uint64_t>(cr));
    auto decoded = codec.decode(codec.encode(payload).symbols);
    EXPECT_EQ(decoded.payload, payload);
    EXPECT_EQ(decoded.cr, cr);
  }
}

class SfSweep : public ::testing::TestWithParam<int> {};

TEST_P(SfSweep, RoundTripAcrossSpreadingFactors) {
  int sf = GetParam();
  LoraParams p{sf, Hertz::from_kilohertz(125.0)};
  if (sf == 6) p.explicit_header = false;
  PacketCodec codec{p};
  auto payload = random_payload(21, static_cast<std::uint64_t>(sf));
  auto encoded = codec.encode(payload);
  auto decoded = sf == 6 ? codec.decode(encoded.symbols, payload.size())
                         : codec.decode(encoded.symbols);
  EXPECT_TRUE(decoded.crc_valid) << "SF" << sf;
  EXPECT_EQ(decoded.payload, payload) << "SF" << sf;
}

INSTANTIATE_TEST_SUITE_P(AllSf, SfSweep, ::testing::Range(6, 13));

TEST(PacketCodec, LdroRoundTrip) {
  // SF12/BW125 has 32 ms symbols -> LDRO active -> reduced-rate blocks.
  LoraParams p{12, Hertz::from_kilohertz(125.0)};
  ASSERT_TRUE(p.low_data_rate_optimize());
  PacketCodec codec{p};
  auto payload = random_payload(40, 11);
  auto decoded = codec.decode(codec.encode(payload).symbols);
  EXPECT_EQ(decoded.payload, payload);
}

TEST(PacketCodec, Sf6RequiresImplicitHeader) {
  LoraParams p{6, Hertz::from_kilohertz(125.0)};
  EXPECT_THROW(PacketCodec{p}, std::invalid_argument);
}

TEST(PacketCodec, ImplicitModeNeedsLength) {
  LoraParams p = sf8();
  p.explicit_header = false;
  PacketCodec codec{p};
  auto encoded = codec.encode(random_payload(10, 12));
  EXPECT_THROW((void)codec.decode(encoded.symbols), std::invalid_argument);
  auto decoded = codec.decode(encoded.symbols, 10);
  EXPECT_TRUE(decoded.crc_valid);
}

TEST(PacketCodec, TruncatedSymbolsRejected) {
  PacketCodec codec{sf8()};
  auto encoded = codec.encode(random_payload(50, 13));
  std::vector<std::uint32_t> truncated(encoded.symbols.begin(),
                                       encoded.symbols.begin() + 12);
  auto decoded = codec.decode(truncated);
  EXPECT_FALSE(decoded.crc_valid && !decoded.payload.empty());
}

}  // namespace
}  // namespace tinysdr::lora
