#include "lora/coding.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace tinysdr::lora {
namespace {

TEST(Whitening, SelfInverse) {
  std::vector<std::uint8_t> data{0x00, 0xFF, 0x42, 0xA5, 0x17};
  EXPECT_EQ(whiten(whiten(data)), data);
}

TEST(Whitening, BreaksUpZeroRuns) {
  std::vector<std::uint8_t> zeros(64, 0x00);
  auto w = whiten(zeros);
  int distinct = 0;
  bool seen[256] = {};
  for (auto b : w)
    if (!seen[b]) {
      seen[b] = true;
      ++distinct;
    }
  EXPECT_GT(distinct, 20);
}

TEST(Hamming, RoundTripAllNibblesAllRates) {
  for (auto cr : {CodingRate::kCr45, CodingRate::kCr46, CodingRate::kCr47,
                  CodingRate::kCr48}) {
    for (std::uint8_t nib = 0; nib < 16; ++nib) {
      bool err = false;
      EXPECT_EQ(hamming_decode(hamming_encode(nib, cr), cr, &err), nib);
      EXPECT_FALSE(err);
    }
  }
}

TEST(Hamming, Cr47CorrectsAnySingleBitError) {
  for (std::uint8_t nib = 0; nib < 16; ++nib) {
    std::uint8_t cw = hamming_encode(nib, CodingRate::kCr47);
    for (int bit = 0; bit < 7; ++bit) {
      std::uint8_t corrupted =
          static_cast<std::uint8_t>(cw ^ (1u << bit));
      bool err = false;
      EXPECT_EQ(hamming_decode(corrupted, CodingRate::kCr47, &err), nib)
          << "nibble " << int(nib) << " bit " << bit;
    }
  }
}

TEST(Hamming, Cr48CorrectsAnySingleBitError) {
  for (std::uint8_t nib = 0; nib < 16; ++nib) {
    std::uint8_t cw = hamming_encode(nib, CodingRate::kCr48);
    for (int bit = 0; bit < 8; ++bit) {
      std::uint8_t corrupted =
          static_cast<std::uint8_t>(cw ^ (1u << bit));
      EXPECT_EQ(hamming_decode(corrupted, CodingRate::kCr48), nib);
    }
  }
}

TEST(Hamming, Cr45DetectsSingleBitError) {
  for (std::uint8_t nib = 0; nib < 16; ++nib) {
    std::uint8_t cw = hamming_encode(nib, CodingRate::kCr45);
    for (int bit = 0; bit < 5; ++bit) {
      bool err = false;
      (void)hamming_decode(static_cast<std::uint8_t>(cw ^ (1u << bit)),
                           CodingRate::kCr45, &err);
      EXPECT_TRUE(err);
    }
  }
}

TEST(Hamming, RejectsNonNibble) {
  EXPECT_THROW((void)hamming_encode(0x10, CodingRate::kCr45),
               std::invalid_argument);
}

TEST(Interleaver, RoundTripAllRates) {
  Rng rng{31};
  for (auto cr : {CodingRate::kCr45, CodingRate::kCr46, CodingRate::kCr47,
                  CodingRate::kCr48}) {
    for (int rows : {4, 6, 7, 8, 10, 12}) {
      std::vector<std::uint8_t> cws;
      for (int i = 0; i < rows; ++i)
        cws.push_back(static_cast<std::uint8_t>(
            rng.next_below(1u << (4 + static_cast<int>(cr)))));
      auto symbols = interleave(cws, rows, cr);
      EXPECT_EQ(symbols.size(), 4u + static_cast<std::size_t>(cr));
      EXPECT_EQ(deinterleave(symbols, rows, cr), cws);
    }
  }
}

TEST(Interleaver, SymbolCorruptionSpreadsAcrossCodewords) {
  // The diagonal interleaver's purpose: one bad *symbol* flips at most one
  // bit in each codeword, which Hamming can then correct.
  const int rows = 8;
  const auto cr = CodingRate::kCr48;
  std::vector<std::uint8_t> cws;
  for (int i = 0; i < rows; ++i)
    cws.push_back(hamming_encode(static_cast<std::uint8_t>(i), cr));
  auto symbols = interleave(cws, rows, cr);
  symbols[3] ^= 0xFF;  // clobber one symbol completely
  auto back = deinterleave(symbols, rows, cr);
  for (int i = 0; i < rows; ++i) {
    EXPECT_EQ(hamming_decode(back[static_cast<std::size_t>(i)], cr),
              static_cast<std::uint8_t>(i));
  }
}

TEST(Interleaver, ValidatesDimensions) {
  std::vector<std::uint8_t> three(3, 0);
  EXPECT_THROW(interleave(three, 4, CodingRate::kCr45),
               std::invalid_argument);
  std::vector<std::uint32_t> syms(4, 0);
  EXPECT_THROW(deinterleave(syms, 4, CodingRate::kCr45),
               std::invalid_argument);
}

TEST(Gray, RoundTrip) {
  for (std::uint32_t v = 0; v < 4096; ++v)
    EXPECT_EQ(gray_decode(gray_encode(v)), v);
}

TEST(Gray, AdjacentValuesDifferInOneBit) {
  for (std::uint32_t v = 0; v < 1024; ++v) {
    std::uint32_t a = gray_encode(v);
    std::uint32_t b = gray_encode(v + 1);
    EXPECT_EQ(__builtin_popcount(a ^ b), 1);
  }
}

TEST(Nibbles, RoundTrip) {
  std::vector<std::uint8_t> bytes{0x12, 0xAB, 0xF0};
  auto nibbles = bytes_to_nibbles(bytes);
  ASSERT_EQ(nibbles.size(), 6u);
  EXPECT_EQ(nibbles[0], 0x2);  // low nibble first
  EXPECT_EQ(nibbles[1], 0x1);
  EXPECT_EQ(nibbles_to_bytes(nibbles), bytes);
}

TEST(Nibbles, OddCountPadsWithZero) {
  std::vector<std::uint8_t> nibbles{0x5, 0xA, 0x3};
  auto bytes = nibbles_to_bytes(nibbles);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xA5);
  EXPECT_EQ(bytes[1], 0x03);
}

}  // namespace
}  // namespace tinysdr::lora
