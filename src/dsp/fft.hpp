// Radix-2 iterative FFT with cached twiddle factors.
//
// The LoRa demodulator (paper Fig. 6b) uses a Lattice FFT IP core sized
// 2^SF; this is our software equivalent. Plans are cached per size the way
// the FPGA instantiates one core per configuration.
//
// The scalar decimation-in-time loop (stage_scalar in fft.cpp) defines
// the output bytes. Where simd::avx2() allows it (common/simd.hpp),
// stages with half >= 4 run four butterflies per iteration with the same
// products and sums, so the bytes do not depend on the CPU (pinned by
// tests/dsp/fft_pin_test.cpp). Both loops read one table that holds each
// stage's twiddles contiguously.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.hpp"

namespace tinysdr::dsp {

/// Pre-planned FFT of a fixed power-of-two size.
class FftPlan {
 public:
  /// @throws std::invalid_argument if size is not a power of two >= 2.
  explicit FftPlan(std::size_t size);

  [[nodiscard]] std::size_t size() const { return size_; }

  /// In-place forward DFT (no scaling).
  void forward(std::span<Complex> data) const;

 private:
  std::size_t size_;
  std::vector<std::size_t> bitrev_;
  /// Stage `half` (1, 2, 4, ..., size/2) reads its twiddles
  /// exp(-2πik / 2·half), k < half, from offset half - 1.
  std::vector<Complex> twiddles_;
};

[[nodiscard]] constexpr bool is_power_of_two(std::size_t n) {
  return n >= 1 && (n & (n - 1)) == 0;
}

/// Index of the FFT bin with the largest magnitude.
[[nodiscard]] std::size_t peak_bin(std::span<const Complex> spectrum);

}  // namespace tinysdr::dsp
