#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/simd.hpp"
#include "obs/profile.hpp"

#if defined(TINYSDR_AVX2)
#include <immintrin.h>
#endif

namespace tinysdr::dsp {
namespace {

// One radix-2 stage: the butterflies of span 2·half over the whole block,
// with tw[k] = exp(-2πik / 2·half). This loop defines the transform's
// bytes; the AVX2 stage must reproduce them.
void stage_scalar(Complex* data, std::size_t size, std::size_t half,
                  const Complex* tw) {
  for (std::size_t start = 0; start < size; start += 2 * half) {
    for (std::size_t k = 0; k < half; ++k) {
      Complex u = data[start + k];
      Complex v = data[start + k + half] * tw[k];
      data[start + k] = u + v;
      data[start + k + half] = u - v;
    }
  }
}

#if defined(TINYSDR_AVX2)
// stage_scalar four butterflies at a time (half a multiple of 4). With
// v = a + bi and w = c + di, addsub(v·(c, c), (b, a)·(d, d)) is
// (ac − bd, bc + ad): the products and sums -fcx-limited-range emits for
// v * w, each rounded once (no FMA: this target and -ffp-contract=off).
__attribute__((target("avx2"))) void stage_avx2(Complex* data,
                                                std::size_t size,
                                                std::size_t half,
                                                const Complex* tw) {
  auto* f = reinterpret_cast<float*>(data);
  const auto* t = reinterpret_cast<const float*>(tw);
  for (std::size_t start = 0; start < size; start += 2 * half) {
    float* lo = f + 2 * start;
    float* hi = lo + 2 * half;
    for (std::size_t k = 0; k < 2 * half; k += 8) {
      const __m256 w = _mm256_loadu_ps(t + k);
      const __m256 v = _mm256_loadu_ps(hi + k);
      const __m256 re = _mm256_mul_ps(v, _mm256_moveldup_ps(w));
      const __m256 im =
          _mm256_mul_ps(_mm256_permute_ps(v, 0xB1), _mm256_movehdup_ps(w));
      const __m256 vw = _mm256_addsub_ps(re, im);
      const __m256 u = _mm256_loadu_ps(lo + k);
      _mm256_storeu_ps(lo + k, _mm256_add_ps(u, vw));
      _mm256_storeu_ps(hi + k, _mm256_sub_ps(u, vw));
    }
  }
}
#endif

}  // namespace

FftPlan::FftPlan(std::size_t size) : size_(size) {
  if (size < 2 || !is_power_of_two(size))
    throw std::invalid_argument("FftPlan: size must be a power of two >= 2");

  bitrev_.resize(size);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < size) ++log2n;
  for (std::size_t i = 0; i < size; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b)
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
    bitrev_[i] = r;
  }

  // The angle of twiddle k of stage `half` equals that of twiddle
  // k·size/(2·half) of a size-point table bit for bit: the two differ by
  // power-of-two factors, which scale a double exactly.
  twiddles_.resize(size - 1);
  for (std::size_t half = 1; half < size; half <<= 1) {
    for (std::size_t k = 0; k < half; ++k) {
      double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                     static_cast<double>(2 * half);
      twiddles_[half - 1 + k] = Complex{static_cast<float>(std::cos(angle)),
                                        static_cast<float>(std::sin(angle))};
    }
  }
}

void FftPlan::forward(std::span<Complex> data) const {
  obs::ProfileScope prof{"fft"};
  if (data.size() != size_)
    throw std::invalid_argument("FftPlan::forward: size mismatch");

  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  // Stages with half >= 4 run four butterflies per AVX2 iteration where
  // simd::avx2() allows it; the first two stages and other hosts run the
  // scalar loop.
  const std::size_t scalar_end =
      simd::avx2() ? std::min<std::size_t>(4, size_) : size_;
  std::size_t half = 1;
  for (; half < scalar_end; half <<= 1)
    stage_scalar(data.data(), size_, half, twiddles_.data() + half - 1);
#if defined(TINYSDR_AVX2)
  for (; half < size_; half <<= 1)
    stage_avx2(data.data(), size_, half, twiddles_.data() + half - 1);
#endif
}

std::size_t peak_bin(std::span<const Complex> spectrum) {
  std::size_t best = 0;
  float best_mag = -1.0f;
  for (std::size_t i = 0; i < spectrum.size(); ++i) {
    float m = std::norm(spectrum[i]);
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  return best;
}

}  // namespace tinysdr::dsp
