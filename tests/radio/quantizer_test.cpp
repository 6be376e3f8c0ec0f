#include "radio/quantizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "dsp/nco.hpp"

namespace tinysdr::radio {
namespace {

TEST(IqQuantizer, RejectsBadConfig) {
  EXPECT_THROW(IqQuantizer(1, 1.0f), std::invalid_argument);
  EXPECT_THROW(IqQuantizer(25, 1.0f), std::invalid_argument);
  EXPECT_THROW(IqQuantizer(13, 0.0f), std::invalid_argument);
}

TEST(IqQuantizer, ThirteenBitCodeRange) {
  IqQuantizer q{13, 1.0f};
  EXPECT_EQ(q.max_code(), 4095);
  EXPECT_EQ(q.quantize(1.0f), 4095);
  EXPECT_EQ(q.quantize(-1.0f), -4095);
  EXPECT_EQ(q.quantize(0.0f), 0);
}

TEST(IqQuantizer, SaturatesBeyondFullScale) {
  IqQuantizer q{13, 1.0f};
  EXPECT_EQ(q.quantize(2.0f), 4095);
  EXPECT_EQ(q.quantize(-2.0f), -4096);
}

TEST(IqQuantizer, RoundTripErrorBounded) {
  IqQuantizer q{13, 1.0f};
  Rng rng{5};
  float step = 1.0f / 4095.0f;
  for (int i = 0; i < 1000; ++i) {
    float v = static_cast<float>(rng.next_double() * 2.0 - 1.0);
    float r = q.dequantize(q.quantize(v));
    EXPECT_LE(std::abs(r - v), step / 2.0f + 1e-7f);
  }
}

TEST(IqQuantizer, MeasuredSnrNearIdealForSine) {
  // Quantize a full-scale tone and measure the SNR; it should approach the
  // 6.02*13+1.76 = 80 dB theoretical value.
  IqQuantizer q{13, 1.0f};
  auto tone = tinysdr::dsp::generate_tone(0.01, 8192);
  auto quantized = tone;
  q.roundtrip_in_place(quantized);
  double sig = 0.0, err = 0.0;
  for (std::size_t i = 0; i < tone.size(); ++i) {
    sig += std::norm(tone[i]);
    err += std::norm(quantized[i] - tone[i]);
  }
  double snr_db = 10.0 * std::log10(sig / err);
  EXPECT_GT(snr_db, 70.0);
  EXPECT_LT(snr_db, 90.0);
}

/// std::lround saturated to the code range. lround is unspecified once the
/// result leaves `long` (and at +-inf); the quantizer saturates there.
std::int32_t clamped_lround(float scaled, std::int32_t max_code) {
  const long lo = -static_cast<long>(max_code) - 1;
  const long hi = max_code;
  if (scaled >= 0x1p62f) return max_code;
  if (scaled <= -0x1p62f) return -max_code - 1;
  return static_cast<std::int32_t>(std::clamp(std::lround(scaled), lo, hi));
}

/// Values around every rounding and saturation edge of a quantizer whose
/// step is exactly 1 (full scale == max code), so the value is the scaled
/// code the rounding sees.
std::vector<float> edge_values(std::int32_t max_code) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> v{0.0f,  -0.0f, 1e9f,  -1e9f,  3e9f,
                       -3e9f, 1e18f, -1e18f, 1e30f, -1e30f,
                       std::numeric_limits<float>::max(),
                       std::numeric_limits<float>::lowest(),
                       std::numeric_limits<float>::min(),
                       -std::numeric_limits<float>::denorm_min(),
                       kInf,  -kInf};
  auto around = [&v](float x) {
    v.push_back(x);
    v.push_back(std::nextafter(x, kInf));
    v.push_back(std::nextafter(x, -kInf));
  };
  const auto top = static_cast<float>(max_code);
  for (float limit : {top, top + 0.5f, top + 1.0f, top + 1.5f}) {
    around(limit);
    around(-limit);
  }
  // Every code and half-code near zero and near both rails.
  const std::int32_t span = std::min<std::int32_t>(max_code + 3, 5000);
  for (std::int32_t k = -span; k <= span; ++k) {
    const auto f = static_cast<float>(k);
    around(f);
    around(f + 0.5f);
    v.push_back(f + 0.25f);
    v.push_back(f + 0.75f);
  }
  for (std::int32_t k = max_code - 5000; k <= max_code + 3; ++k) {
    if (k < span) continue;
    around(static_cast<float>(k) + 0.5f);
    around(-static_cast<float>(k) - 0.5f);
  }
  return v;
}

TEST(IqQuantizer, QuantizeEqualsClampedLround) {
  for (int bits : {2, 8, 13, 16, 24}) {
    const std::int32_t max_code = (std::int32_t{1} << (bits - 1)) - 1;
    IqQuantizer q{bits, static_cast<float>(max_code)};
    for (float x : edge_values(max_code))
      ASSERT_EQ(q.quantize(x), clamped_lround(x, max_code))
          << "bits " << bits << " x " << x;
  }
}

TEST(IqQuantizer, QuantizeEqualsClampedLroundOverRandomFloats) {
  // Every finite magnitude, through the real step of a 13-bit quantizer.
  IqQuantizer q{13, 1.0f};
  const float step = q.full_scale() / static_cast<float>(q.max_code());
  Rng rng{17};
  for (int i = 0; i < 200000; ++i) {
    auto x = std::bit_cast<float>(rng.next_u32());
    if (std::isnan(x)) continue;
    ASSERT_EQ(q.quantize(x), clamped_lround(x / step, q.max_code())) << x;
  }
  // Dense values inside the range, where the fraction decides.
  for (int i = 0; i < 200000; ++i) {
    auto x = static_cast<float>(rng.next_double() * 2.4 - 1.2);
    ASSERT_EQ(q.quantize(x), clamped_lround(x / step, q.max_code())) << x;
  }
}

TEST(IqQuantizer, NanKeepsTheLroundMapping) {
  IqQuantizer q{13, 1.0f};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(q.quantize(nan),
            std::clamp(static_cast<std::int32_t>(std::lround(nan)), -4096,
                       4095));
}

TEST(IqQuantizer, RoundtripInPlaceEqualsElementwise) {
  // Every block length up to a few vector widths plus a long one, with a
  // NaN at random positions, so vector blocks with and without a NaN and
  // every tail length are compared with the defining scalar pair.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng{23};
  for (int bits : {2, 8, 13, 16, 24}) {
    const IqQuantizer q{bits, 1.0f};
    for (std::size_t len : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 4096}) {
      dsp::Samples block;
      for (std::size_t i = 0; i < len; ++i)
        block.emplace_back(static_cast<float>(rng.next_gaussian() * 0.6),
                           static_cast<float>(rng.next_gaussian() * 0.6));
      auto* rails = reinterpret_cast<float*>(block.data());
      for (std::size_t i = 0; i < 2 * len; ++i)
        if (rng.next_u32() % 29 == 0) rails[i] = nan;
      dsp::Samples in_place = block;
      q.roundtrip_in_place(in_place);
      for (std::size_t i = 0; i < len; ++i) {
        const dsp::Complex want{q.dequantize(q.quantize(block[i].real())),
                                q.dequantize(q.quantize(block[i].imag()))};
        ASSERT_EQ(std::memcmp(&in_place[i], &want, sizeof want), 0)
            << "bits " << bits << " len " << len << " at " << i;
      }
    }
  }
}

class BitDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitDepthSweep, SnrScalesWithBits) {
  int bits = GetParam();
  IqQuantizer q{bits, 1.0f};
  auto tone = tinysdr::dsp::generate_tone(0.013, 4096);
  auto quantized = tone;
  q.roundtrip_in_place(quantized);
  double sig = 0.0, err = 0.0;
  for (std::size_t i = 0; i < tone.size(); ++i) {
    sig += std::norm(tone[i]);
    err += std::norm(quantized[i] - tone[i]);
  }
  double snr_db = 10.0 * std::log10(sig / err);
  // Within ~12 dB of the ideal full-scale-sine SNR, 6.02*bits + 1.76 dB
  // (LUT spurs / rounding asymmetry allowed), and monotone with bit depth
  // by construction of the bound below.
  EXPECT_GT(snr_db, 6.02 * bits + 1.76 - 12.0);
}

INSTANTIATE_TEST_SUITE_P(Depths, BitDepthSweep,
                         ::testing::Values(8, 10, 12, 13, 14));

}  // namespace
}  // namespace tinysdr::radio
