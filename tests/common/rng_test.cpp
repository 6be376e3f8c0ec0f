#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/gaussian_kernel.hpp"

namespace tinysdr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng{11};
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng{13};
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.next_below(8)];
  for (int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(Rng, GaussianMomentsMatchStandardNormal) {
  Rng rng{99};
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.next_gaussian();
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.02);
}

// fill_gaussian is defined as the static_cast<float>(next_gaussian()) loop:
// same floats, same cache, same generator state afterwards.
bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(RngFillGaussian, MatchesScalarLoopForEveryLength) {
  for (bool primed : {false, true}) {
    for (std::size_t n = 0; n <= 1100; ++n) {
      SCOPED_TRACE(testing::Message() << "n " << n << " primed " << primed);
      Rng ref{n + 1000, 5};
      Rng fast{n + 1000, 5};
      if (primed) {
        ASSERT_EQ(ref.next_gaussian(), fast.next_gaussian());
      }
      std::vector<float> want(n);
      for (auto& v : want) v = static_cast<float>(ref.next_gaussian());
      std::vector<float> got(n);
      fast.fill_gaussian(got);
      ASSERT_TRUE(same_floats(want, got));
      // The cache (odd counts leave a sine half) and the PCG state.
      ASSERT_EQ(ref.next_gaussian(), fast.next_gaussian());
      ASSERT_EQ(ref.next_u32(), fast.next_u32());
    }
  }
}

TEST(RngFillGaussian, SuccessiveOddFillsCarryTheCache) {
  Rng ref{77};
  Rng fast{77};
  for (std::size_t n : {3u, 1u, 255u, 513u, 0u, 7u, 1000u, 1u}) {
    std::vector<float> want(n);
    for (auto& v : want) v = static_cast<float>(ref.next_gaussian());
    std::vector<float> got(n);
    fast.fill_gaussian(got);
    ASSERT_TRUE(same_floats(want, got)) << "n " << n;
  }
  EXPECT_EQ(ref.next_u32(), fast.next_u32());
}

// Rng{282652} draws a zero as its 976th u32. Read as u2 it gives the
// angle 0 (sin = +0); one draw later it is a u1 that Box–Muller rejects
// and redraws.
TEST(RngFillGaussian, MatchesScalarLoopAcrossAZeroDraw) {
  for (int skip : {0, 1}) {
    Rng ref{282652};
    Rng fast{282652};
    for (int i = 0; i < skip; ++i) ASSERT_EQ(ref.next_u32(), fast.next_u32());
    std::vector<float> want(1200);
    for (auto& v : want) v = static_cast<float>(ref.next_gaussian());
    std::vector<float> got(want.size());
    fast.fill_gaussian(got);
    EXPECT_TRUE(same_floats(want, got)) << "skip " << skip;
    EXPECT_EQ(ref.next_u32(), fast.next_u32());
  }
}

// The guard window holds 2^-12 of all doubles, so 2 * 10^7 values put
// about 4900 near a float rounding midpoint, where the vector kernel
// defers to libm.
TEST(RngFillGaussian, MatchesScalarLoopOverTwentyMillionValues) {
  constexpr std::size_t kTotal = 20'000'000;
  constexpr std::size_t kChunk = 1 << 16;
  Rng ref{2024};
  Rng fast{2024};
  std::vector<float> want(kChunk);
  std::vector<float> got(kChunk);
  std::size_t near_ties = 0;
  for (std::size_t done = 0; done < kTotal; done += kChunk) {
    for (auto& v : want) {
      const double g = ref.next_gaussian();
      if (detail::near_float_tie(g)) ++near_ties;
      v = static_cast<float>(g);
    }
    fast.fill_gaussian(got);
    ASSERT_TRUE(same_floats(want, got)) << "chunk at " << done;
  }
  EXPECT_EQ(ref.next_u32(), fast.next_u32());
  EXPECT_GT(near_ties, 4000u);
}

TEST(Rng, BoolProbability) {
  Rng rng{5};
  int trues = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.next_bool(0.25)) ++trues;
  EXPECT_NEAR(static_cast<double>(trues) / n, 0.25, 0.01);
}

}  // namespace
}  // namespace tinysdr
