// ADC/DAC quantization model for the AT86RF215 I/Q data path.
//
// The radio samples baseband at 4 MHz with 13-bit resolution per rail
// (paper §3.2.1). Both directions matter: the demodulator sees ADC-quantized
// samples and the modulator's waveform passes through the DAC. We model a
// mid-tread uniform quantizer with saturation.
//
// The scalar quantize()/dequantize() pair defines the round trip's bytes.
// Where simd::avx2() allows it (common/simd.hpp), roundtrip_in_place()
// runs it eight floats per iteration with the same division, rounding and
// saturation; blocks holding a NaN and the tail run the scalar pair
// (pinned by tests/radio/quantizer_pin_test.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "dsp/types.hpp"

namespace tinysdr::radio {

/// Uniform mid-tread quantizer with configurable bit depth.
class IqQuantizer {
 public:
  /// @param bits        resolution per rail (AT86RF215: 13)
  /// @param full_scale  analog amplitude mapped to code extremes
  explicit IqQuantizer(int bits = 13, float full_scale = 1.0f);

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] float full_scale() const { return full_scale_; }

  /// Max positive code (2^(bits-1) - 1).
  [[nodiscard]] std::int32_t max_code() const { return max_code_; }

  /// Quantize one rail value to an integer code (saturating).
  [[nodiscard]] std::int32_t quantize(float value) const;

  /// Convert a code back to an analog value.
  [[nodiscard]] float dequantize(std::int32_t code) const;

  /// Round-trip a block through the quantizer where it lives (what the
  /// ADC/DAC does to a waveform): each rail becomes
  /// dequantize(quantize(rail)).
  void roundtrip_in_place(std::span<dsp::Complex> block) const;

 private:
  int bits_;
  float full_scale_;
  std::int32_t max_code_;
  float step_;
};

}  // namespace tinysdr::radio
