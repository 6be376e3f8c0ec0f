#include "dsp/fir.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <span>

#include "common/rng.hpp"

namespace tinysdr::dsp {
namespace {

TEST(DesignLowpass, RejectsBadArguments) {
  EXPECT_THROW(design_lowpass(0, 0.25), std::invalid_argument);
  EXPECT_THROW(design_lowpass(14, 0.0), std::invalid_argument);
  EXPECT_THROW(design_lowpass(14, 0.6), std::invalid_argument);
}

TEST(DesignLowpass, UnityDcGain) {
  for (std::size_t taps : {7u, 14u, 31u}) {
    auto h = design_lowpass(taps, 0.2);
    double sum = 0.0;
    for (float t : h) sum += t;
    EXPECT_NEAR(sum, 1.0, 1e-6) << taps << " taps";
  }
}

TEST(DesignLowpass, SymmetricLinearPhase) {
  auto h = design_lowpass(14, 0.25);
  for (std::size_t i = 0; i < h.size() / 2; ++i)
    EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-7);
}

double tone_gain(FirFilter f, double freq) {
  // Measure steady-state gain at a normalized frequency (on a copy, so
  // every call starts from the caller's fresh delay line).
  const int n = 4096;
  Samples x(n);
  for (int i = 0; i < n; ++i) {
    double angle = 2.0 * std::numbers::pi * freq * i;
    x[i] = Complex{static_cast<float>(std::cos(angle)),
                   static_cast<float>(std::sin(angle))};
  }
  const Samples y = f.filter(x);
  double in_power = 0.0, out_power = 0.0;
  for (int i = 201; i < n; ++i) {  // skip transient
    in_power += std::norm(x[i]);
    out_power += std::norm(y[i]);
  }
  return std::sqrt(out_power / in_power);
}

TEST(FirFilter, PassbandAndStopband) {
  // 64-tap filter with cutoff 0.125: passband tone passes, far stopband
  // tone is strongly attenuated.
  FirFilter f{design_lowpass(64, 0.125)};
  EXPECT_NEAR(tone_gain(f, 0.01), 1.0, 0.05);
  EXPECT_LT(tone_gain(f, 0.4), 0.01);
}

TEST(FirFilter, FourteenTapPaperFilterAttenuatesHighFreq) {
  // The paper's 14-tap front-end: modest but real high-frequency rejection.
  FirFilter f{design_lowpass(14, 0.125)};
  double pass = tone_gain(f, 0.02);
  double stop = tone_gain(f, 0.45);
  EXPECT_GT(pass, 0.9);
  EXPECT_LT(stop, 0.2);
}

TEST(FirFilter, ImpulseResponseEqualsTaps) {
  std::vector<float> taps{0.1f, 0.2f, 0.4f, 0.2f, 0.1f};
  FirFilter f{taps};
  Samples in(taps.size() + 3, Complex{0, 0});
  in[0] = Complex{1, 0};
  auto out = f.filter(in);
  for (std::size_t i = 0; i < taps.size(); ++i)
    EXPECT_NEAR(out[i].real(), taps[i], 1e-6);
  for (std::size_t i = taps.size(); i < out.size(); ++i)
    EXPECT_NEAR(out[i].real(), 0.0, 1e-6);
}

TEST(FirFilter, EmptyTapsThrow) {
  EXPECT_THROW(FirFilter{std::vector<float>{}}, std::invalid_argument);
}

TEST(FirFilter, LinearityOverBlocks) {
  FirFilter f1{design_lowpass(14, 0.2)};
  FirFilter f2{design_lowpass(14, 0.2)};
  FirFilter f3{design_lowpass(14, 0.2)};
  Samples a{{1, 0}, {0, 1}, {-1, 0}, {0.5, 0.5}};
  Samples b{{0, -1}, {2, 0}, {1, 1}, {-0.5, 0}};
  Samples ab(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) ab[i] = a[i] + b[i];

  auto ya = f1.filter(a);
  auto yb = f3.filter(b);
  auto yab = f2.filter(ab);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(yab[i].real(), ya[i].real() + yb[i].real(), 1e-5);
    EXPECT_NEAR(yab[i].imag(), ya[i].imag() + yb[i].imag(), 1e-5);
  }
}

/// Direct-form reference: a +0 accumulator per output that adds
/// x[i-k]*h[k] for every tap in ascending k, with zero history before the
/// block.
Samples reference_decimate(const std::vector<float>& taps,
                           const Samples& in, std::size_t first,
                           std::size_t step) {
  Samples out;
  for (std::size_t i = first; i < in.size(); i += step) {
    Complex acc{0.0f, 0.0f};
    for (std::size_t k = 0; k < taps.size(); ++k)
      acc += (i >= k ? in[i - k] : Complex{0.0f, 0.0f}) * taps[k];
    out.push_back(acc);
  }
  return out;
}

TEST(FirFilter, DecimateIsByteEqualToDirectForm) {
  Rng rng{0xF1D, 3};
  auto uniform = [&rng] {
    return static_cast<float>(rng.next_double() * 2.0 - 1.0);
  };
  for (std::size_t t = 1; t <= 31; ++t) {
    std::vector<float> taps(t);
    for (auto& h : taps) h = uniform();  // mixed signs
    const FirFilter f{taps};
    // Signed zeros in either rail, between ordinary samples.
    Samples x(3 * t);
    for (auto& v : x) {
      switch (rng.next_below(4)) {
        case 0: v = Complex{-0.0f, uniform()}; break;
        case 1: v = Complex{uniform(), -0.0f}; break;
        case 2: v = Complex{0.0f, -0.0f}; break;
        default: v = Complex{uniform(), uniform()}; break;
      }
    }
    for (std::size_t len = 0; len <= x.size(); ++len) {
      const Samples in(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(len));
      for (std::size_t step = 1; step <= 8; ++step) {
        for (std::size_t first = 0; first <= t; ++first) {
          const Samples want = reference_decimate(taps, in, first, step);
          Samples got(want.size() + 2, Complex{7.0f, 7.0f});
          ASSERT_EQ(f.decimate(in, first, step, got), want.size());
          ASSERT_TRUE(want.empty() ||
                      std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(Complex)) == 0)
              << "taps " << t << " len " << len << " step " << step
              << " first " << first;
          EXPECT_EQ(got[want.size()], (Complex{7.0f, 7.0f}));
        }
      }
    }
  }
}

/// Direct-form reference of the streaming filter from a fresh delay line:
/// each output starts from x[i]*h[0] and adds x[i-k]*h[k] in ascending k,
/// rail by rail, each product rounded, with +0 history before the stream.
Samples reference_filter(const std::vector<float>& taps, const Samples& in) {
  Samples out;
  for (std::size_t i = 0; i < in.size(); ++i) {
    float re = in[i].real() * taps[0];
    float im = in[i].imag() * taps[0];
    for (std::size_t k = 1; k < taps.size(); ++k) {
      const Complex x = i >= k ? in[i - k] : Complex{0.0f, 0.0f};
      re += x.real() * taps[k];
      im += x.imag() * taps[k];
    }
    out.emplace_back(re, im);
  }
  return out;
}

TEST(FirFilter, FilterIsByteEqualToDirectFormAtEveryChunking) {
  Rng rng{0xF1F, 5};
  auto uniform = [&rng] {
    return static_cast<float>(rng.next_double() * 2.0 - 1.0);
  };
  // Long enough to cross the kernel's 2048-sample tiles.
  Samples x(5000);
  for (auto& v : x) {
    v = rng.next_below(8) == 0 ? Complex{-0.0f, uniform()}
                               : Complex{uniform(), uniform()};
  }
  for (std::size_t t : {1u, 2u, 5u, 14u, 31u}) {
    std::vector<float> taps(t);
    for (auto& h : taps) h = uniform();  // mixed signs
    const Samples want = reference_filter(taps, x);
    auto expect_bytes = [&](const Samples& got, const char* how) {
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(Complex)), 0)
            << how << ": taps " << t << ", first difference at " << i;
    };

    FirFilter whole{taps};
    expect_bytes(whole.filter(x), "filter");
    // Chunks shorter than the history, one tile plus one, and mixed.
    for (std::size_t chunk : {1u, 7u, 13u, 2049u, 4999u}) {
      FirFilter f{taps};
      Samples got(x.size());
      for (std::size_t i = 0; i < x.size(); i += chunk) {
        const std::size_t len = std::min(chunk, x.size() - i);
        f.filter_into(std::span{x}.subspan(i, len),
                      std::span{got}.subspan(i, len));
      }
      expect_bytes(got, "filter_into");
    }
    FirFilter random{taps};
    Samples got(x.size());
    for (std::size_t i = 0; i < x.size();) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.next_below(300), x.size() - i);
      random.filter_into(std::span{x}.subspan(i, len),
                         std::span{got}.subspan(i, len));
      i += len;
    }
    expect_bytes(got, "filter_into, random chunks");
    // In place: the block overlaps its output and is staged whole.
    FirFilter in_place{taps};
    got = x;
    in_place.filter_into(got, got);
    expect_bytes(got, "filter_into in place");
  }
}

TEST(FirFilter, DecimateIgnoresAndKeepsStreamState) {
  FirFilter f{design_lowpass(14, 0.2)};
  FirFilter fresh{design_lowpass(14, 0.2)};
  const Samples a{{1, 0}, {0, 1}, {-1, 0}, {0.5, 0.5}};
  const Samples b{{0, -1}, {2, 0}, {1, 1}, {-0.5, 0}};
  (void)f.filter(a);
  (void)fresh.filter(a);
  // decimate() starts from zero history whatever filter() left behind...
  Samples got(b.size());
  ASSERT_EQ(f.decimate(b, 0, 1, got), b.size());
  const Samples want = reference_decimate(f.taps(), b, 0, 1);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(Complex) * 4), 0);
  // ...and leaves the stream state as it was.
  const Samples y = f.filter(b);
  const Samples y_fresh = fresh.filter(b);
  EXPECT_EQ(std::memcmp(y.data(), y_fresh.data(), sizeof(Complex) * 4), 0);
}

TEST(FirFilter, DecimateRejectsBadArguments) {
  const FirFilter f{design_lowpass(14, 0.2)};
  const Samples in(10, Complex{1.0f, 0.0f});
  Samples out(10);
  EXPECT_THROW((void)f.decimate(in, 0, 0, out), std::invalid_argument);
  // Outputs at 1, 4, 7: three slots needed.
  EXPECT_THROW((void)f.decimate(in, 1, 3, std::span{out.data(), 2}),
               std::invalid_argument);
  EXPECT_EQ(f.decimate(in, 1, 3, std::span{out.data(), 3}), 3u);
  EXPECT_EQ(f.decimate(in, 10, 3, std::span<Complex>{}), 0u);
}

}  // namespace
}  // namespace tinysdr::dsp
