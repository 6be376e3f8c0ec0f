// Property tests over the LoRa stack on the testkit runner: the full
// encode->modulate->demodulate->decode chain round-trips for every legal
// configuration, payload and capture offset; the codec never crashes or
// silently validates garbage. Every failure reports a replayable
// (TINYSDR_PROP_SEED, TINYSDR_PROP_INDEX) pair and a shrunk
// counterexample. The cross-PHY generalisation of these properties runs
// through phy::Registry in tests/phy/phy_property_test.cpp and the
// tests/fuzz harnesses.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "lora/demodulator.hpp"
#include "lora/modulator.hpp"
#include "testkit/gen.hpp"
#include "testkit/property.hpp"

namespace tinysdr::lora {
namespace {

using testkit::check;
using testkit::PropertyConfig;
namespace gen = testkit::gen;

struct FuzzCase {
  int sf;
  double bw_khz;
  CodingRate cr;
};

// CTest names each case after its printed value; the default raw-byte dump
// would include the struct's uninitialised padding.
void PrintTo(const FuzzCase& c, std::ostream* os) {
  *os << "sf" << c.sf << "_bw" << c.bw_khz << "_cr4"
      << 4 + static_cast<int>(c.cr);
}

class ChainFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ChainFuzz, CleanRoundTripRandomPayloadsAndOffsets) {
  auto [sf, bw_khz, cr] = GetParam();
  LoraParams p{sf, Hertz::from_kilohertz(bw_khz), cr};
  if (sf == 6) p.explicit_header = false;
  Modulator mod{p, p.bandwidth};
  Demodulator demod{p, p.bandwidth};

  PropertyConfig cfg = PropertyConfig::from_env();
  cfg.cases = 4;  // the suite spans 9 configs; keep per-config cost flat
  cfg.seed ^= static_cast<std::uint64_t>(sf * 1000 + static_cast<int>(bw_khz));

  auto g = gen::pair_of(gen::bytes(1, 48), gen::uint_below(700));
  auto result = check(
      g,
      [&](const std::pair<std::vector<std::uint8_t>, std::uint32_t>& c) {
        const auto& [payload, offset] = c;
        auto wave = mod.modulate(payload);
        dsp::Samples padded(offset, dsp::Complex{0, 0});
        padded.insert(padded.end(), wave.begin(), wave.end());
        padded.insert(padded.end(), 400, dsp::Complex{0, 0});

        auto received = sf == 6 ? demod.receive(padded, payload.size())
                                : demod.receive(padded);
        return received.has_value() && received->packet.crc_valid &&
               received->packet.payload == payload;
      },
      cfg, "lora chain round trip");
  EXPECT_TRUE(result.ok) << result.message();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ChainFuzz,
    ::testing::Values(FuzzCase{6, 125.0, CodingRate::kCr45},
                      FuzzCase{7, 125.0, CodingRate::kCr46},
                      FuzzCase{8, 125.0, CodingRate::kCr45},
                      FuzzCase{8, 250.0, CodingRate::kCr47},
                      FuzzCase{8, 500.0, CodingRate::kCr48},
                      FuzzCase{9, 500.0, CodingRate::kCr45},
                      FuzzCase{10, 250.0, CodingRate::kCr46},
                      FuzzCase{11, 500.0, CodingRate::kCr48},
                      FuzzCase{12, 500.0, CodingRate::kCr45}));

TEST(CodecFuzz, RandomSymbolStreamsNeverValidateAccidentally) {
  // Feeding garbage symbols must never produce a CRC-valid packet:
  // header checksum (8 bits) + CRC16 put false-accept odds ~2^-24/case.
  LoraParams p{8, Hertz::from_kilohertz(125.0)};
  PacketCodec codec{p};

  PropertyConfig cfg = PropertyConfig::from_env();
  cfg.cases = 300;
  auto symbols =
      gen::vector_of(gen::uint_below(256).map([](std::uint32_t v) {
        return v;
      }), 20, 80);
  auto result = check(
      symbols,
      [&](const std::vector<std::uint32_t>& s) {
        auto decoded = codec.decode(s);
        return !(decoded.header_valid && decoded.crc_valid &&
                 !decoded.payload.empty());
      },
      cfg, "no accidental validation");
  EXPECT_TRUE(result.ok) << result.message();
}

TEST(CodecFuzz, DecodeNeverThrowsOnGarbage) {
  LoraParams p{9, Hertz::from_kilohertz(125.0)};
  PacketCodec codec{p};
  PropertyConfig cfg = PropertyConfig::from_env();
  cfg.cases = 200;
  auto result = check(
      gen::vector_of(gen::uint_below(512), 0, 90),
      [&](const std::vector<std::uint32_t>& s) { (void)codec.decode(s); },
      cfg, "decode is total");
  EXPECT_TRUE(result.ok) << result.message();
}

TEST(DemodFuzz, ReceiveNeverThrowsOnArbitrarySamples) {
  LoraParams p{8, Hertz::from_kilohertz(125.0)};
  Demodulator demod{p, p.bandwidth};
  PropertyConfig cfg = PropertyConfig::from_env();
  cfg.cases = 10;
  auto junk = gen::pair_of(gen::uint_below(4096), gen::uint_below(1u << 30))
                  .map([](const std::pair<std::uint32_t, std::uint32_t>& c) {
                    Rng rng{c.second, 5};
                    dsp::Samples samples(2048 + c.first);
                    for (auto& s : samples)
                      s = dsp::Complex{
                          static_cast<float>(rng.next_gaussian() * 10.0),
                          static_cast<float>(rng.next_gaussian() * 10.0)};
                    return samples;
                  });
  auto result = check(
      junk, [&](const dsp::Samples& samples) { (void)demod.receive(samples); },
      cfg, "receive is total");
  EXPECT_TRUE(result.ok) << result.message();
}

TEST(CodingFuzz, WhitenHammingInterleaveChainComposes) {
  // Random nibble rows through encode->interleave with one random
  // single-bit symbol hit at CR4/8 must always correct back.
  PropertyConfig cfg = PropertyConfig::from_env();
  cfg.cases = 100;
  auto g = gen::tuple_of(gen::vector_of(gen::uint_below(16), 4, 12),
                         gen::uint_below(1u << 30));
  auto result = check(
      g,
      [](const std::tuple<std::vector<std::uint32_t>, std::uint32_t>& c) {
        const auto& [nibs, hit_seed] = c;
        const int rows = static_cast<int>(nibs.size());
        std::vector<std::uint8_t> cws;
        for (auto nib : nibs)
          cws.push_back(hamming_encode(static_cast<std::uint8_t>(nib),
                                       CodingRate::kCr48));
        auto symbols = interleave(cws, rows, CodingRate::kCr48);

        Rng rng{hit_seed, 9};
        std::size_t victim =
            rng.next_below(static_cast<std::uint32_t>(symbols.size()));
        symbols[victim] ^=
            1u << rng.next_below(static_cast<std::uint32_t>(rows));

        auto back = deinterleave(symbols, rows, CodingRate::kCr48);
        for (int i = 0; i < rows; ++i) {
          if (hamming_decode(back[static_cast<std::size_t>(i)],
                             CodingRate::kCr48) !=
              static_cast<std::uint8_t>(nibs[static_cast<std::size_t>(i)]))
            return false;
        }
        return true;
      },
      cfg, "coding chain corrects single hits");
  EXPECT_TRUE(result.ok) << result.message();
}

}  // namespace
}  // namespace tinysdr::lora
