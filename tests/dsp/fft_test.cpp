#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/rng.hpp"

namespace tinysdr::dsp {
namespace {

TEST(FftPlan, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan{0}, std::invalid_argument);
  EXPECT_THROW(FftPlan{1}, std::invalid_argument);
  EXPECT_THROW(FftPlan{3}, std::invalid_argument);
  EXPECT_THROW(FftPlan{100}, std::invalid_argument);
  EXPECT_NO_THROW(FftPlan{256});
}

TEST(FftPlan, ImpulseGivesFlatSpectrum) {
  FftPlan plan{64};
  Samples x(64, Complex{0, 0});
  x[0] = Complex{1, 0};
  plan.forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5);
  }
}

TEST(FftPlan, ToneLandsInCorrectBin) {
  const std::size_t n = 256;
  FftPlan plan{n};
  for (std::size_t bin : {1ul, 7ul, 128ul, 255ul}) {
    Samples x(n);
    for (std::size_t i = 0; i < n; ++i) {
      double angle = 2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                     static_cast<double>(n);
      x[i] = Complex{static_cast<float>(std::cos(angle)),
                     static_cast<float>(std::sin(angle))};
    }
    plan.forward(x);
    EXPECT_EQ(peak_bin(x), bin);
    EXPECT_NEAR(std::abs(x[bin]), static_cast<float>(n), 0.01f * n);
  }
}

TEST(FftPlan, ForwardMatchesNaiveDft) {
  // Reference: the O(N^2) DFT in double precision, twiddles indexed by
  // (k*i) mod N. Tolerance: every bin of the float FFT lies within
  // 1e-6 * log2(N) * ||x||_2 of it. Float rounding (2^-24 ~ 6e-8) adds up
  // over the log2(N) butterfly stages and scales with the signal norm.
  Rng rng{17};
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    FftPlan plan{n};
    Samples x(n);
    double norm2 = 0.0;
    for (auto& v : x) {
      v = Complex{static_cast<float>(rng.next_gaussian()),
                  static_cast<float>(rng.next_gaussian())};
      norm2 += std::norm(std::complex<double>{v});
    }
    std::vector<std::complex<double>> w(n);
    for (std::size_t i = 0; i < n; ++i)
      w[i] = std::polar(1.0, -2.0 * std::numbers::pi *
                                 static_cast<double>(i) /
                                 static_cast<double>(n));
    Samples y = x;
    plan.forward(y);
    const double tol =
        1e-6 * std::log2(static_cast<double>(n)) * std::sqrt(norm2);
    double worst = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      std::complex<double> ref{0.0, 0.0};
      for (std::size_t i = 0; i < n; ++i)
        ref += std::complex<double>{x[i]} * w[(k * i) % n];
      worst = std::max(worst, std::abs(std::complex<double>{y[k]} - ref));
    }
    EXPECT_LE(worst, tol) << "N=" << n;
  }
}

TEST(FftPlan, ParsevalEnergyConservation) {
  const std::size_t n = 128;
  FftPlan plan{n};
  Rng rng{3};
  Samples x(n);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = Complex{static_cast<float>(rng.next_gaussian()),
                static_cast<float>(rng.next_gaussian())};
    time_energy += std::norm(v);
  }
  plan.forward(x);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              time_energy * 1e-4);
}

TEST(FftPlan, LinearityProperty) {
  const std::size_t n = 64;
  FftPlan plan{n};
  Rng rng{23};
  Samples a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = Complex{static_cast<float>(rng.next_gaussian()), 0};
    b[i] = Complex{0, static_cast<float>(rng.next_gaussian())};
    sum[i] = a[i] + b[i];
  }
  Samples fa = a;
  Samples fb = b;
  plan.forward(fa);
  plan.forward(fb);
  plan.forward(sum);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sum[i].real(), fa[i].real() + fb[i].real(), 1e-3);
    EXPECT_NEAR(sum[i].imag(), fa[i].imag() + fb[i].imag(), 1e-3);
  }
}

TEST(FftPlan, SizeMismatchThrows) {
  FftPlan plan{64};
  Samples x(32);
  EXPECT_THROW(plan.forward(x), std::invalid_argument);
}

class FftSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeSweep, ToneRecoveryAtEverySize) {
  const std::size_t n = GetParam();
  FftPlan plan{n};
  const std::size_t bin = n / 3;
  Samples x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double angle = 2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                   static_cast<double>(n);
    x[i] = Complex{static_cast<float>(std::cos(angle)),
                   static_cast<float>(std::sin(angle))};
  }
  plan.forward(x);
  EXPECT_EQ(peak_bin(x), bin);
}

// Covers every LoRa FFT size (2^6 .. 2^12) plus the spectrum size.
INSTANTIATE_TEST_SUITE_P(LoraSizes, FftSizeSweep,
                         ::testing::Values(64, 128, 256, 512, 1024, 2048,
                                           4096));

}  // namespace
}  // namespace tinysdr::dsp
