// Internals of Rng::fill_gaussian, declared here so tests can reach them.
//
// The vector kernel evaluates Box–Muller pairs to about one double ulp of
// glibc's log/sqrt/sin/cos; it is not bit-exact by itself. The guard
// makes the float results exact: a double that is not within 2^16 ulps of
// a float rounding midpoint rounds to the same float as any value within
// 2^15 ulps of it, and the kernel stays far inside that (see
// tests/common/gaussian_kernel_test.cpp). Flagged pairs are recomputed
// with the scalar libm formula of Rng::next_gaussian.
// Since the guard makes them exact, rng.cpp may use FMA and is not built
// with tinysdr_exact_float.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"

namespace tinysdr::detail {

/// True if the double `x` lies within 2^16 ulps of a point where its
/// float rounding changes, i.e. its low 29 mantissa bits are within 2^16
/// of 2^28. Only such results may round differently from libm's.
constexpr bool near_float_tie(double x) {
  const std::uint64_t low = std::bit_cast<std::uint64_t>(x) & 0x1FFF'FFFFu;
  // low - (2^28 - 2^16) wraps to a huge value below the window.
  return low - ((std::uint64_t{1} << 28) - (std::uint64_t{1} << 16)) <=
         (std::uint64_t{1} << 17);
}

/// out[2p] = float(c[p]) and out[2p + 1] = float(s[p]) for p < pairs,
/// except that a pair with either half near_float_tie is recomputed from
/// (u1[p], u2[p]) with Rng::next_gaussian's libm expressions.
void round_pairs(const double* u1, const double* u2, const double* c,
                 const double* s, std::size_t pairs, float* out);

#if defined(TINYSDR_AVX2)
/// For i < n (a multiple of 4): c[i] = sqrt(-2 ln u1[i]) * cos(2π u2[i])
/// and s[i] = the same with sin, for u1 in (0, 1] and u2 in [0, 1).
/// The angle is the double product 2π·u2, as in Rng::next_gaussian. Only
/// call it when simd::avx2().
void box_muller_avx2(const double* u1, const double* u2, double* c, double* s,
                     std::size_t n);
#endif

}  // namespace tinysdr::detail
