// FIR filter design and streaming application.
//
// The paper's LoRa demodulator front-end runs a 14-tap FIR low-pass after
// the I/Q deserializer; we replicate that with a windowed-sinc design of the
// same length and expose a streaming filter with the same group delay
// behaviour the FPGA pipeline has.
#pragma once

#include <span>
#include <vector>

#include "dsp/types.hpp"
#include "dsp/window.hpp"

namespace tinysdr::dsp {

/// Design a linear-phase low-pass FIR.
/// @param taps          filter length (paper uses 14)
/// @param cutoff_ratio  cutoff as a fraction of the sample rate, in (0, 0.5]
/// @param window        taper applied to the ideal sinc
[[nodiscard]] std::vector<float> design_lowpass(
    std::size_t taps, double cutoff_ratio,
    WindowKind window = WindowKind::kHamming);

/// Streaming FIR filter over complex samples.
class FirFilter {
 public:
  explicit FirFilter(std::vector<float> taps);

  [[nodiscard]] std::size_t tap_count() const { return taps_.size(); }
  [[nodiscard]] const std::vector<float>& taps() const { return taps_; }

  /// Filter a whole block (stateful: continues from previous calls).
  [[nodiscard]] Samples filter(std::span<const Complex> in);

  /// Filter `in` into caller-owned storage (out.size() >= in.size()),
  /// continuing from previous calls with the same state semantics as
  /// filter(). Each output accumulates taps in ascending order over a
  /// contiguous history scratch with a vectorizable tap-outer inner loop
  /// and no allocation. Every output is byte-identical to a direct-form
  /// loop that starts from x[i]*h[0] and adds x[i-k]*h[k] in ascending k,
  /// each product rounded (no FMA contraction), on every host; so any
  /// split of a stream through filter_into produces identical bytes.
  /// This is the streaming engine's hot path (flow::FirBlock writes
  /// straight into a ring's WriteView).
  void filter_into(std::span<const Complex> in, std::span<Complex> out);

  /// Decimating block filter from zero history: writes the outputs at
  /// input indices first, first+step, ... below in.size() to the front of
  /// `out` and returns their count. Stateless (the delay line is neither
  /// read nor written), so one const filter can serve many threads. Each
  /// output is byte-identical to a direct-form filter that starts from a
  /// +0 accumulator and adds x[i-k]*h[k] in ascending k with every
  /// product rounded (no FMA contraction). Throws std::invalid_argument
  /// if step is 0 or `out` cannot hold the outputs.
  [[nodiscard]] std::size_t decimate(std::span<const Complex> in,
                                     std::size_t first, std::size_t step,
                                     std::span<Complex> out) const;

 private:
  std::vector<float> taps_;
  std::vector<Complex> delay_;
  std::size_t head_ = 0;
  std::vector<Complex> scratch_;  ///< filter_into history + block staging
};

}  // namespace tinysdr::dsp
