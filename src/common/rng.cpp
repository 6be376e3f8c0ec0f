#include "common/rng.hpp"

#include <algorithm>
#include <array>

#include "common/gaussian_kernel.hpp"

#if defined(TINYSDR_AVX2)
#include <immintrin.h>
#endif

namespace tinysdr {

namespace detail {

void round_pairs(const double* u1, const double* u2, const double* c,
                 const double* s, std::size_t pairs, float* out) {
  bool near_tie = false;
  for (std::size_t p = 0; p < pairs; ++p) {
    out[2 * p] = static_cast<float>(c[p]);
    out[2 * p + 1] = static_cast<float>(s[p]);
    near_tie |= near_float_tie(c[p]) | near_float_tie(s[p]);
  }
  for (std::size_t p = 0; near_tie && p < pairs; ++p) {
    if (!near_float_tie(c[p]) && !near_float_tie(s[p])) continue;
    // Same expressions as Rng::next_gaussian.
    double mag = std::sqrt(-2.0 * std::log(u1[p]));
    double angle = 2.0 * std::numbers::pi * u2[p];
    out[2 * p] = static_cast<float>(mag * std::cos(angle));
    out[2 * p + 1] = static_cast<float>(mag * std::sin(angle));
  }
}

#if defined(TINYSDR_AVX2)
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace {

// Four lanes at a time in GCC vector arithmetic: __m256d and U take the
// usual operators, and a C-style cast between them reinterprets the bits.
// U is unsigned because AVX2 has no 64-bit arithmetic shift. The
// polynomials are the table-free fdlibm ones in the branch-free forms
// musl uses. Inputs never reach their special cases: log sees normal
// numbers in (0, 1] and the reduced angle lies within about π/4.
using V = __m256d;
using U = std::uint64_t __attribute__((vector_size(32)));

// ln(x) for x in [2^-32, 1]: x = 2^k (1 + f) with 1 + f in [√2/2, √2).
V log4(V x) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  const U bits = (U)x;
  U hx = (bits >> 32) + (0x3ff00000 - 0x3fe6a09e);
  const U k = (hx >> 20) - 0x3ff;  // the exponent, modulo 2^64
  hx = (hx & 0x000fffff) + 0x3fe6a09e;
  const V f = (V)((hx << 32) | (bits & 0xffffffff)) - 1.0;
  // Small integer k to double through the mantissa of 1.5 * 2^52.
  const V magic = _mm256_set1_pd(0x1.8p52);
  const V dk = (V)(k + (U)magic) - magic;

  const V hfsq = 0.5 * f * f;
  const V s = f / (2.0 + f);
  const V z = s * s;
  const V w = z * z;
  const V t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const V t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  return s * (hfsq + (t2 + t1)) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi;
}

// sin(x + y) for |x| <~ π/4 and a tail |y| <= ulp(x).
V sin_kernel4(V x, V y) {
  constexpr double kS1 = -1.66666666666666324348e-01;
  constexpr double kS2 = 8.33333333332248946124e-03;
  constexpr double kS3 = -1.98412698298579493134e-04;
  constexpr double kS4 = 2.75573137070700676789e-06;
  constexpr double kS5 = -2.50507602534068634195e-08;
  constexpr double kS6 = 1.58969099521155010221e-10;
  const V z = x * x;
  const V w = z * z;
  const V r = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
  const V v = z * x;
  return x - ((z * (0.5 * y - v * r) - y) - v * kS1);
}

// cos(x + y) for |x| <~ π/4 and a tail |y| <= ulp(x).
V cos_kernel4(V x, V y) {
  constexpr double kC1 = 4.16666666666666019037e-02;
  constexpr double kC2 = -1.38888888888741095749e-03;
  constexpr double kC3 = 2.48015872894767294178e-05;
  constexpr double kC4 = -2.75573143513906633035e-07;
  constexpr double kC5 = 2.08757232129817482790e-09;
  constexpr double kC6 = -1.13596475577881948265e-11;
  const V z = x * x;
  const V w = z * z;
  const V r = z * (kC1 + z * (kC2 + z * kC3)) +
              w * w * (kC4 + z * (kC5 + z * kC6));
  const V hz = 0.5 * z;
  const V one_minus_hz = 1.0 - hz;
  return one_minus_hz + (((1.0 - one_minus_hz) - hz) + (z * r - x * y));
}

}  // namespace

void box_muller_avx2(const double* u1, const double* u2, double* c, double* s,
                     std::size_t n) {
  // π/2 as three doubles (Cody–Waite).
  const V pio2_hi = _mm256_set1_pd(0x1.921fb54442d18p0);
  const V pio2_mid = _mm256_set1_pd(0x1.1a62633145c07p-54);
  constexpr double kPio2Lo = -0x1.f1976b7ed8fbcp-110;
  constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
  for (std::size_t i = 0; i < n; i += 4) {
    const V mag = _mm256_sqrt_pd(-2.0 * log4(_mm256_loadu_pd(u1 + i)));
    const V angle = 2.0 * std::numbers::pi * _mm256_loadu_pd(u2 + i);

    // angle = q·π/2 + (hi + lo) with q in 0..4. The FMA makes
    // angle - q·pio2_hi exact, and w + w_err is q·pio2_mid exactly.
    const V q = _mm256_round_pd(angle * kTwoOverPi,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const V r1 = _mm256_fnmadd_pd(q, pio2_hi, angle);
    const V w = q * pio2_mid;
    const V w_err = _mm256_fmsub_pd(q, pio2_mid, w);
    const V hi = r1 - w;
    const V lo = ((r1 - hi) - w) - w_err - q * kPio2Lo;

    // Quadrant q: sin = ks, kc, -ks, -kc and cos = kc, -ks, -kc, ks;
    // q = 4 is q = 0.
    const V ks = sin_kernel4(hi, lo);
    const V kc = cos_kernel4(hi, lo);
    const auto swap = (q == 1.0) | (q == 3.0);
    const V sin_q = swap ? kc : ks;
    const V cos_q = swap ? ks : kc;
    _mm256_storeu_pd(s + i, mag * ((q == 2.0) | (q == 3.0) ? -sin_q : sin_q));
    _mm256_storeu_pd(c + i, mag * ((q == 1.0) | (q == 2.0) ? -cos_q : cos_q));
  }
}
#pragma GCC pop_options
#endif

}  // namespace detail

void Rng::fill_gaussian(std::span<float> out) {
  std::size_t i = 0;
#if defined(TINYSDR_AVX2)
  if (simd::avx2()) {
    constexpr std::size_t kPairs = 64;  // the four arrays take 2 KB of stack
    if (has_cached_ && !out.empty()) {
      out[i++] = static_cast<float>(cached_);
      has_cached_ = false;
    }
    alignas(32) std::array<double, kPairs> u1, u2, c, s;
    while (out.size() - i >= 2) {
      const std::size_t pairs = std::min(kPairs, (out.size() - i) / 2);
      for (std::size_t p = 0; p < pairs; ++p) {
        do {
          u1[p] = next_double();
        } while (u1[p] <= 1e-12);
        u2[p] = next_double();
      }
      const std::size_t padded = (pairs + 3) & ~std::size_t{3};
      std::fill(u1.begin() + pairs, u1.begin() + padded, 1.0);
      std::fill(u2.begin() + pairs, u2.begin() + padded, 0.0);
      detail::box_muller_avx2(u1.data(), u2.data(), c.data(), s.data(),
                              padded);
      detail::round_pairs(u1.data(), u2.data(), c.data(), s.data(), pairs,
                          out.data() + i);
      i += 2 * pairs;
    }
  }
#endif
  // The defining loop; after the blocks at most one value is left, whose
  // pair leaves its sine half in the cache.
  for (; i < out.size(); ++i) out[i] = static_cast<float>(next_gaussian());
}

}  // namespace tinysdr
