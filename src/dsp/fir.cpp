#include "dsp/fir.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/simd.hpp"
#include "obs/profile.hpp"

namespace tinysdr::dsp {
namespace {

// One cache-resident tile of the block FIR, over flattened I/Q floats:
// tap-outer, sample-inner, so every inner loop is a stride-1
// multiply-accumulate. Each output element still receives its taps in
// ascending-k order, each product rounded (tinysdr_exact_float): the same
// operations as a direct-form loop, for every chunking and in the AVX2
// build of the loop that simd::avx2() picks.
//
// restrict is sound: dst is caller storage, base points into either the
// filter's private scratch copy or the caller's input — never the
// output.
[[gnu::always_inline]] inline void fir_tile_body(
    float* __restrict__ dst, const float* __restrict__ base,
    const float* taps, std::size_t tap_count, std::size_t len) {
  const float t0 = taps[0];
  for (std::size_t j = 0; j < len; ++j) dst[j] = base[j] * t0;
  for (std::size_t k = 1; k < tap_count; ++k) {
    const float t = taps[k];
    const float* __restrict__ src = base - 2 * k;
    for (std::size_t j = 0; j < len; ++j) dst[j] += src[j] * t;
  }
}

#if defined(TINYSDR_AVX2)
__attribute__((target("avx2"))) void fir_tile_avx2(
    float* __restrict__ dst, const float* __restrict__ base,
    const float* taps, std::size_t tap_count, std::size_t len) {
  fir_tile_body(dst, base, taps, tap_count, len);
}
#endif

void fir_tile(float* __restrict__ dst, const float* __restrict__ base,
              const float* taps, std::size_t tap_count, std::size_t len) {
#if defined(TINYSDR_AVX2)
  if (simd::avx2()) {
    fir_tile_avx2(dst, base, taps, tap_count, len);
    return;
  }
#endif
  fir_tile_body(dst, base, taps, tap_count, len);
}

}  // namespace

std::vector<float> design_lowpass(std::size_t taps, double cutoff_ratio,
                                  WindowKind window) {
  if (taps == 0) throw std::invalid_argument("design_lowpass: taps == 0");
  if (cutoff_ratio <= 0.0 || cutoff_ratio > 0.5)
    throw std::invalid_argument("design_lowpass: cutoff must be in (0, 0.5]");

  auto win = make_window(window, taps);
  std::vector<float> h(taps);
  double center = (static_cast<double>(taps) - 1.0) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    double x = static_cast<double>(i) - center;
    double ideal = 2.0 * cutoff_ratio * sinc(2.0 * cutoff_ratio * x);
    double v = ideal * win[i];
    h[i] = static_cast<float>(v);
    sum += v;
  }
  // Normalise for unity DC gain so signal power is preserved in-band.
  if (sum != 0.0) {
    for (auto& t : h) t = static_cast<float>(t / sum);
  }
  return h;
}

FirFilter::FirFilter(std::vector<float> taps) : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("FirFilter: empty taps");
  delay_.assign(taps_.size(), Complex{0.0f, 0.0f});
}

Samples FirFilter::filter(std::span<const Complex> in) {
  Samples out(in.size());
  filter_into(in, out);
  return out;
}

void FirFilter::filter_into(std::span<const Complex> in,
                            std::span<Complex> out) {
  if (out.size() < in.size())
    throw std::invalid_argument("FirFilter::filter_into: out too small");
  if (in.empty()) return;
  obs::ProfileScope prof{"fir"};

  const std::size_t T = taps_.size();
  const std::size_t n = in.size();

  // Only the first T-1 outputs reach back before `in`; stage those on a
  // short contiguous timeline (delay history + head of the block). Every
  // later output reads exclusively from `in`, so the kernel runs over
  // the caller's storage directly — zero staging for the bulk of the
  // stream. Requires in/out to be disjoint (ring views and fresh
  // vectors always are); overlapping calls take the staged path for the
  // whole block.
  const std::size_t head = std::min(n, T - 1);
  const bool overlap =
      in.data() < out.data() + n && out.data() < in.data() + n;
  const std::size_t staged = overlap ? n : head;
  scratch_.resize((T - 1) + staged);
  for (std::size_t j = 0; j + 1 < T; ++j)
    scratch_[j] = delay_[(head_ + 1 + j) % T];
  std::copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(staged),
            scratch_.begin() + (T - 1));

  // Tiled fir_tile passes keep the output hot in cache across all T
  // taps. std::complex<float> is layout-compatible with float[2].
  const float* sf = reinterpret_cast<const float*>(scratch_.data() + (T - 1));
  const float* xf = reinterpret_cast<const float*>(in.data());
  float* of = reinterpret_cast<float*>(out.data());
  constexpr std::size_t kTile = 2048;
  for (std::size_t i0 = 0; i0 < staged; i0 += kTile) {
    const std::size_t len = 2 * std::min(kTile, staged - i0);
    fir_tile(of + 2 * i0, sf + 2 * i0, taps_.data(), T, len);
  }
  for (std::size_t i0 = staged; i0 < n; i0 += kTile) {
    const std::size_t len = 2 * std::min(kTile, n - i0);
    fir_tile(of + 2 * i0, xf + 2 * i0, taps_.data(), T, len);
  }

  // Leave the delay line holding the last T inputs, newest at head_ - 1.
  for (std::size_t m = 1; m <= std::min(T, n); ++m)
    delay_[(head_ + n - m) % T] = in[n - m];
  head_ = (head_ + n) % T;
}

std::size_t FirFilter::decimate(std::span<const Complex> in,
                                std::size_t first, std::size_t step,
                                std::span<Complex> out) const {
  if (step == 0) throw std::invalid_argument("FirFilter::decimate: step 0");
  const std::size_t count =
      first < in.size() ? (in.size() - first - 1) / step + 1 : 0;
  if (out.size() < count)
    throw std::invalid_argument("FirFilter::decimate: out too small");
  if (count == 0) return 0;
  obs::ProfileScope prof{"fir"};

  const float* h = taps_.data();
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t i = first + j * step;
    // Taps reaching before index 0 would add x*h = ±0; an accumulator
    // that starts at +0 never becomes -0, so skipping them is exact.
    const std::size_t reach = std::min(taps_.size(), i + 1);
    const Complex* x = in.data() + i;
    float re = 0.0f;
    float im = 0.0f;
    for (std::size_t k = 0; k < reach; ++k) {
      re += x[-static_cast<std::ptrdiff_t>(k)].real() * h[k];
      im += x[-static_cast<std::ptrdiff_t>(k)].imag() * h[k];
    }
    out[j] = Complex{re, im};
  }
  return count;
}

}  // namespace tinysdr::dsp
