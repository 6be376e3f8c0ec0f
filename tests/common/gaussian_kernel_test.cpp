// Margin of the vector Box–Muller kernel against glibc, and the guard that
// makes Rng::fill_gaussian exact.
//
// fill_gaussian trusts a kernel result unless its double lies within 2^16
// ulps of a float rounding midpoint. That is sound while the kernel stays
// within 2^15 ulps of libm's double: both then round to the same float.
// These tests measure the kernel's error over the inputs Box–Muller sees
// (u = k / 2^32) and check the guard's window edges.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "common/gaussian_kernel.hpp"

namespace tinysdr::detail {
namespace {

#if defined(TINYSDR_AVX2)
constexpr double kTwo32 = 4294967296.0;

/// The uniforms the sweep feeds the kernel: k / 2^32 for a strided sweep
/// of k, every k within 20000 of 0, 2^30, 2^31, 3·2^30 and 2^32, and the
/// exact powers of two.
std::vector<double> sweep_uniforms() {
  std::vector<std::uint64_t> ks;
  for (std::uint64_t k = 0; k < (std::uint64_t{1} << 32); k += 4099)
    ks.push_back(k);
  for (std::uint64_t centre : {0ull, 1ull << 30, 1ull << 31, 3ull << 30,
                               1ull << 32})
    for (std::int64_t d = -20000; d <= 20000; ++d) {
      const auto k = static_cast<std::int64_t>(centre) + d;
      if (k >= 0 && k < (std::int64_t{1} << 32))
        ks.push_back(static_cast<std::uint64_t>(k));
    }
  for (int e = 0; e < 32; ++e) ks.push_back(std::uint64_t{1} << e);
  std::vector<double> u;
  u.reserve(ks.size());
  for (std::uint64_t k : ks) u.push_back(static_cast<double>(k) / kTwo32);
  return u;
}

struct Margin {
  double max_rel = 0.0;
  std::uint64_t max_ulps = 0;
  std::size_t flagged = 0;
  std::size_t float_mismatches_unflagged = 0;
};

std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return ia > ib ? static_cast<std::uint64_t>(ia - ib)
                 : static_cast<std::uint64_t>(ib - ia);
}

void accumulate(Margin& m, double got, double want) {
  if (want == 0.0) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want));
    return;
  }
  ASSERT_EQ(std::signbit(got), std::signbit(want)) << got << " " << want;
  m.max_rel = std::max(m.max_rel, std::fabs(got - want) / std::fabs(want));
  m.max_ulps = std::max(m.max_ulps, ulp_distance(got, want));
  if (near_float_tie(got))
    ++m.flagged;
  else if (static_cast<float>(got) != static_cast<float>(want))
    ++m.float_mismatches_unflagged;
}

/// Runs the kernel on (u1[i], u2[i]) and compares with next_gaussian's
/// scalar expressions.
Margin measure(const std::vector<double>& u1, const std::vector<double>& u2) {
  const std::size_t n = (u1.size() + 3) & ~std::size_t{3};
  std::vector<double> a(u1), b(u2), c(n), s(n);
  a.resize(n, 1.0);
  b.resize(n, 0.0);
  box_muller_avx2(a.data(), b.data(), c.data(), s.data(), n);
  Margin m;
  for (std::size_t i = 0; i < u1.size(); ++i) {
    const double mag = std::sqrt(-2.0 * std::log(a[i]));
    const double angle = 2.0 * std::numbers::pi * b[i];
    accumulate(m, c[i], mag * std::cos(angle));
    accumulate(m, s[i], mag * std::sin(angle));
  }
  return m;
}

void expect_margin(const Margin& m) {
  EXPECT_LE(m.max_rel, std::ldexp(1.0, -44));
  EXPECT_LT(m.max_ulps, std::uint64_t{1} << 15);
  EXPECT_EQ(m.float_mismatches_unflagged, 0u);
}

TEST(GaussianKernel, LogMarginOverTheUniformGrid) {
  if (!simd::avx2()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  std::vector<double> u1;
  for (double u : sweep_uniforms())
    if (u > 1e-12) u1.push_back(u);
  u1.push_back(1.0);  // the kernel's padding lane: mag = 0 exactly
  // u2 = 0: cos = 1 and sin = +0 exactly, so c is the magnitude alone.
  const Margin m = measure(u1, std::vector<double>(u1.size(), 0.0));
  expect_margin(m);
  RecordProperty("max_rel_log2", std::to_string(std::log2(m.max_rel)));
}

TEST(GaussianKernel, SinCosMarginOverTheUniformGrid) {
  if (!simd::avx2()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  const std::vector<double> u2 = sweep_uniforms();
  // Magnitudes below, near and above 1, and the largest one (u1 = 2^-32).
  for (double u1 : {0.75, std::exp(-0.5), 0x1p-10, 0x1p-32}) {
    SCOPED_TRACE(testing::Message() << "u1 " << u1);
    expect_margin(measure(std::vector<double>(u2.size(), u1), u2));
  }
}

TEST(GaussianKernel, PairedMarginOverTheUniformGrid) {
  if (!simd::avx2()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  const std::vector<double> u = sweep_uniforms();
  std::vector<double> u1;
  std::vector<double> u2;
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (u[i] <= 1e-12) continue;
    u1.push_back(u[i]);
    u2.push_back(u[(i * 7919) % u.size()]);
  }
  const Margin m = measure(u1, u2);
  expect_margin(m);
  // The guard window is about 2^-12 of all doubles.
  EXPECT_GT(m.flagged, 0u);
}
#endif

/// A double with the sign and exponent of `base` and low 29 mantissa bits
/// equal to `low`.
double with_low_bits(double base, std::uint64_t low) {
  const std::uint64_t mask = (std::uint64_t{1} << 29) - 1;
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(base) & ~mask) |
                               low);
}

TEST(GaussianKernel, GuardFlagsExactlyTheWindowAroundFloatMidpoints) {
  constexpr std::uint64_t kMid = std::uint64_t{1} << 28;
  constexpr std::uint64_t kHalfWidth = std::uint64_t{1} << 16;
  for (double base : {1.0, -1.0, 0x1.8p-3, -2.75, 7.3, 0x1.fffffep-70}) {
    SCOPED_TRACE(testing::Message() << std::hexfloat << base);
    EXPECT_TRUE(near_float_tie(with_low_bits(base, kMid)));
    EXPECT_TRUE(near_float_tie(with_low_bits(base, kMid - kHalfWidth)));
    EXPECT_TRUE(near_float_tie(with_low_bits(base, kMid + kHalfWidth)));
    EXPECT_FALSE(near_float_tie(with_low_bits(base, kMid - kHalfWidth - 1)));
    EXPECT_FALSE(near_float_tie(with_low_bits(base, kMid + kHalfWidth + 1)));
    EXPECT_FALSE(near_float_tie(with_low_bits(base, 0)));
    EXPECT_FALSE(near_float_tie(with_low_bits(base, 2 * kMid - 1)));

    // Just outside the window, moving 2^15 ulps toward the midpoint does
    // not change the float: the reason the kernel needs only that margin.
    for (std::uint64_t low : {kMid - kHalfWidth - 1, kMid + kHalfWidth + 1}) {
      const double x = with_low_bits(base, low);
      const double toward = with_low_bits(
          base, low < kMid ? low + (kHalfWidth >> 1) : low - (kHalfWidth >> 1));
      EXPECT_EQ(static_cast<float>(x), static_cast<float>(toward));
    }
  }
}

// round_pairs must trust values outside the window and recompute pairs
// inside it. Each pair's cosine half is given as a double inside the
// window that rounds to the other float neighbour of libm's value, so
// only the libm recomputation yields the right float.
TEST(GaussianKernel, RoundPairsRecomputesPairsInsideTheWindow) {
  constexpr std::uint64_t kMid = std::uint64_t{1} << 28;
  constexpr std::uint64_t kHalfWidth = std::uint64_t{1} << 16;
  const std::vector<double> u1 = {0.3, 0x1p-32, 0.999, 0.5, 0.125};
  const std::vector<double> u2 = {0.1, 0.7, 0.25, 0.0, 0.9};
  const std::size_t n = u1.size();
  std::vector<double> want_c(n), want_s(n), c(n), s(n);
  for (std::size_t p = 0; p < n; ++p) {
    const double mag = std::sqrt(-2.0 * std::log(u1[p]));
    const double angle = 2.0 * std::numbers::pi * u2[p];
    want_c[p] = mag * std::cos(angle);
    want_s[p] = mag * std::sin(angle);
    const std::uint64_t low =
        std::bit_cast<std::uint64_t>(want_c[p]) & (2 * kMid - 1);
    // The odd pairs stay outside the window with their (correct) values.
    c[p] = p % 2 == 1 ? want_c[p]
                      : with_low_bits(want_c[p], low < kMid ? kMid + kHalfWidth
                                                            : kMid - kHalfWidth);
    s[p] = want_s[p];
    if (p % 2 == 0) {
      ASSERT_TRUE(near_float_tie(c[p]));
      ASSERT_NE(static_cast<float>(c[p]), static_cast<float>(want_c[p]));
    }
  }
  std::vector<float> out(2 * n);
  round_pairs(u1.data(), u2.data(), c.data(), s.data(), n, out.data());
  for (std::size_t p = 0; p < n; ++p) {
    EXPECT_EQ(out[2 * p], static_cast<float>(want_c[p])) << "pair " << p;
    EXPECT_EQ(out[2 * p + 1], static_cast<float>(want_s[p])) << "pair " << p;
  }
}

}  // namespace
}  // namespace tinysdr::detail
