// Calibration blocks: DC removal (batch mean),
// blind Moseley–Slump IQ-imbalance estimation, and the autocorrelation
// CFO estimator — each proven to invert the matching impairment block.
#include "impair/correct.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "dsp/cfo.hpp"
#include "impair/impair.hpp"

namespace tinysdr::impair {
namespace {

std::vector<dsp::Complex> circular_signal(std::size_t n, std::uint64_t seed) {
  std::vector<dsp::Complex> x(n);
  Rng rng{seed, 3};
  for (auto& s : x)
    s = dsp::Complex{static_cast<float>(rng.next_gaussian()),
                     static_cast<float>(rng.next_gaussian())};
  return x;
}

TEST(RemoveDc, SubtractsTheMean) {
  auto x = circular_signal(4096, 11);
  DcOffset imp{{0.4f, -0.3f}};
  ImpairState st{Rng{1, 64}};
  imp.apply(x, st);

  const dsp::Complex removed = remove_dc(x);
  EXPECT_NEAR(removed.real(), 0.4f, 0.05);
  EXPECT_NEAR(removed.imag(), -0.3f, 0.05);

  double re = 0.0, im = 0.0;
  for (auto s : x) {
    re += s.real();
    im += s.imag();
  }
  EXPECT_NEAR(re / static_cast<double>(x.size()), 0.0, 1e-6);
  EXPECT_NEAR(im / static_cast<double>(x.size()), 0.0, 1e-6);
}

TEST(RemoveDc, EmptyCaptureIsSafe) {
  std::vector<dsp::Complex> empty;
  EXPECT_EQ(remove_dc(empty), (dsp::Complex{0.0f, 0.0f}));
}

TEST(IqImbalanceCorrection, RecoversTheInjectedParameters) {
  auto x = circular_signal(8192, 14);
  IqImbalance imp{1.5, 8.0};
  ImpairState st{Rng{3, 64}};
  imp.apply(x, st);

  const IqEstimate est = estimate_iq_imbalance(x);
  EXPECT_NEAR(est.gain_db(), 1.5, 0.2);
  // Blind second-order statistics over 8k gaussian samples: the phase
  // reading carries ~1.5 degrees of estimation noise at this length.
  EXPECT_NEAR(est.phase_deg(), 8.0, 2.0);
}

TEST(IqImbalanceCorrection, RoundTripsToTheCleanSignal) {
  const auto clean = circular_signal(8192, 15);
  auto x = clean;
  IqImbalance imp{2.0, 10.0};
  ImpairState st{Rng{4, 64}};
  imp.apply(x, st);
  correct_iq_imbalance(x);
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    worst = std::max<double>(worst, std::abs(x[i] - clean[i]));
  // Blind statistics over 8k samples: a few percent residual, far below
  // the injected distortion.
  EXPECT_LT(worst, 0.2);
  EXPECT_EQ(x[0].real(), clean[0].real());  // I rail untouched by model
}

TEST(IqImbalanceCorrection, DegenerateCaptureIsANoOp) {
  std::vector<dsp::Complex> x(64, dsp::Complex{0.0f, 0.0f});
  const auto est = estimate_iq_imbalance(x);
  correct_iq_imbalance(x, est);
  for (auto s : x) EXPECT_EQ(s, (dsp::Complex{0.0f, 0.0f}));
}

TEST(CfoEstimator, ReadsAPureToneExactly) {
  std::vector<dsp::Complex> x(2048, dsp::Complex{1.0f, 0.0f});
  dsp::mix_cfo(x, 0.01);
  EXPECT_NEAR(dsp::estimate_cfo(x), 0.01, 1e-4);
}

TEST(CfoEstimator, LagExtendsPrecisionNotRange) {
  std::vector<dsp::Complex> x(2048, dsp::Complex{1.0f, 0.0f});
  dsp::mix_cfo(x, 0.001);
  EXPECT_NEAR(dsp::estimate_cfo(x, {.lag = 64}), 0.001, 1e-6);
  // Beyond +-1/(2L) the long-lag estimate aliases; the short lag still
  // captures it.
  std::vector<dsp::Complex> fast(2048, dsp::Complex{1.0f, 0.0f});
  dsp::mix_cfo(fast, 0.02);
  EXPECT_NEAR(dsp::estimate_cfo(fast, {.lag = 1}), 0.02, 1e-4);
  EXPECT_GT(std::abs(dsp::estimate_cfo(fast, {.lag = 64}) - 0.02), 1e-3);
}

TEST(CfoEstimator, SquaringStripsBpskFlips) {
  // BPSK-looking stream: random pi flips every 8 samples, plus a real CFO.
  std::vector<dsp::Complex> x(4096);
  Rng rng{99, 1};
  float sign = 1.0f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (i % 8 == 0) sign = (rng.next_byte() & 1) != 0 ? 1.0f : -1.0f;
    x[i] = dsp::Complex{sign, 0.0f};
  }
  dsp::mix_cfo(x, 0.004);
  EXPECT_NEAR(dsp::estimate_cfo(x, {.lag = 16, .power = 2}), 0.004, 1e-4);
}

TEST(CfoEstimator, EdgeCasesAreFiniteZero) {
  std::vector<dsp::Complex> empty;
  EXPECT_EQ(dsp::estimate_cfo(empty), 0.0);
  std::vector<dsp::Complex> one(1, dsp::Complex{1.0f, 0.0f});
  EXPECT_EQ(dsp::estimate_cfo(one), 0.0);
  std::vector<dsp::Complex> zeros(128, dsp::Complex{0.0f, 0.0f});
  EXPECT_EQ(dsp::estimate_cfo(zeros), 0.0);
}

TEST(CfoCorrection, MixThenUnmixRoundTrips) {
  const auto clean = circular_signal(1024, 16);
  auto x = clean;
  dsp::mix_cfo(x, 0.0123);
  dsp::mix_cfo(x, -0.0123);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(x[i] - clean[i]), 0.0, 1e-4);
}

TEST(CfoCorrection, ImpairmentThenEstimateCorrectCancels) {
  std::vector<dsp::Complex> x(2048, dsp::Complex{1.0f, 0.0f});
  CfoDrift imp{0.007};
  ImpairState st{Rng{5, 64}};
  imp.apply(x, st);
  const double est = dsp::estimate_cfo(x);
  EXPECT_NEAR(est, 0.007, 1e-4);
  dsp::mix_cfo(x, -est);
  EXPECT_NEAR(std::abs(dsp::estimate_cfo(x)), 0.0, 1e-5);
}

}  // namespace
}  // namespace tinysdr::impair
