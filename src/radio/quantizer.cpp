#include "radio/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/simd.hpp"

#if defined(TINYSDR_AVX2)
#include <immintrin.h>
#endif

namespace tinysdr::radio {

#if defined(TINYSDR_AVX2)
namespace {

// dequantize(quantize(x)) over x[i, end), end - i a multiple of 8, eight
// floats at a time with quantize()'s steps: a true division by the step,
// saturation blended in as the scaled values max_code and -max_code - 1
// (which then truncate to themselves), truncation, the fraction compared
// with +-1/2, the min with max_code, and the product with the step.
// Stops at the first block holding a NaN, left as it is, and returns its
// index (end if there is none).
__attribute__((target("avx2"))) std::size_t roundtrip_avx2(
    float* x, std::size_t i, std::size_t end, float step,
    std::int32_t max_code) {
  const auto top = static_cast<float>(max_code);
  const __m256 vstep = _mm256_set1_ps(step);
  const __m256 limit = _mm256_set1_ps(top + 1.0f);
  const __m256 neg_limit = _mm256_set1_ps(-(top + 1.0f));
  const __m256 vtop = _mm256_set1_ps(top);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 neg_half = _mm256_set1_ps(-0.5f);
  const __m256i vmax = _mm256_set1_epi32(max_code);
  for (; i < end; i += 8) {
    __m256 scaled = _mm256_div_ps(_mm256_loadu_ps(x + i), vstep);
    if (_mm256_movemask_ps(_mm256_cmp_ps(scaled, scaled, _CMP_UNORD_Q)))
      return i;
    scaled = _mm256_blendv_ps(scaled, vtop,
                              _mm256_cmp_ps(scaled, limit, _CMP_GE_OQ));
    scaled = _mm256_blendv_ps(scaled, neg_limit,
                              _mm256_cmp_ps(scaled, neg_limit, _CMP_LE_OQ));
    __m256i code = _mm256_cvttps_epi32(scaled);
    const __m256 fraction = _mm256_sub_ps(scaled, _mm256_cvtepi32_ps(code));
    // A true compare is an all-ones lane, i.e. -1.
    code = _mm256_sub_epi32(code, _mm256_castps_si256(_mm256_cmp_ps(
                                      fraction, half, _CMP_GE_OQ)));
    code = _mm256_add_epi32(code, _mm256_castps_si256(_mm256_cmp_ps(
                                      fraction, neg_half, _CMP_LE_OQ)));
    code = _mm256_min_epi32(code, vmax);
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_cvtepi32_ps(code), vstep));
  }
  return end;
}

}  // namespace
#endif

IqQuantizer::IqQuantizer(int bits, float full_scale)
    : bits_(bits), full_scale_(full_scale) {
  if (bits < 2 || bits > 24)
    throw std::invalid_argument("IqQuantizer: bits out of range");
  if (full_scale <= 0.0f)
    throw std::invalid_argument("IqQuantizer: full_scale <= 0");
  max_code_ = (std::int32_t{1} << (bits - 1)) - 1;
  step_ = full_scale_ / static_cast<float>(max_code_);
}

std::int32_t IqQuantizer::quantize(float value) const {
  const float scaled = value / step_;
  // Round half away from zero, as std::lround does, without the libm
  // call. Saturating first leaves |scaled| < max_code + 1 <= 2^23, where
  // a float's fractional part is exact, so truncating and comparing the
  // fraction against one half rounds exactly.
  const float limit = static_cast<float>(max_code_) + 1.0f;
  if (scaled >= limit) return max_code_;
  if (scaled <= -limit) return -max_code_ - 1;
  if (std::isnan(scaled))
    return std::clamp(static_cast<std::int32_t>(std::lround(scaled)),
                      -max_code_ - 1, max_code_);
  auto code = static_cast<std::int32_t>(scaled);
  const float fraction = scaled - static_cast<float>(code);
  if (fraction >= 0.5f) ++code;
  if (fraction <= -0.5f) --code;
  return std::min(code, max_code_);
}

float IqQuantizer::dequantize(std::int32_t code) const {
  return static_cast<float>(code) * step_;
}

void IqQuantizer::roundtrip_in_place(std::span<dsp::Complex> block) const {
  // std::complex<float> is layout-compatible with float[2].
  auto* x = reinterpret_cast<float*>(block.data());
  const std::size_t n = 2 * block.size();
  std::size_t i = 0;
#if defined(TINYSDR_AVX2)
  if (simd::avx2()) {
    // A block holding a NaN runs quantize() itself, so a NaN keeps its
    // lround mapping.
    const std::size_t vector_end = n & ~std::size_t{7};
    while ((i = roundtrip_avx2(x, i, vector_end, step_, max_code_)) <
           vector_end)
      for (const std::size_t block_end = i + 8; i < block_end; ++i)
        x[i] = dequantize(quantize(x[i]));
  }
#endif
  for (; i < n; ++i) x[i] = dequantize(quantize(x[i]));
}

}  // namespace tinysdr::radio
