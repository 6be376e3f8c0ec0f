#include "dsp/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "obs/profile.hpp"

namespace tinysdr::dsp {

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

  twiddles_.resize(size / 2);
  for (std::size_t k = 0; k < size / 2; ++k) {
    double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                   static_cast<double>(size);
    twiddles_[k] = Complex{static_cast<float>(std::cos(angle)),
                           static_cast<float>(std::sin(angle))};
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

  for (std::size_t len = 2; len <= size_; len <<= 1) {
    std::size_t half = len >> 1;
    std::size_t step = size_ / len;
    for (std::size_t start = 0; start < size_; start += len) {
      for (std::size_t k = 0; k < half; ++k) {
        Complex w = twiddles_[k * step];
        Complex u = data[start + k];
        Complex v = data[start + k + half] * w;
        data[start + k] = u + v;
        data[start + k + half] = u - v;
      }
    }
  }
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
