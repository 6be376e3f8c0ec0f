#include "radio/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tinysdr::radio {

IqQuantizer::IqQuantizer(int bits, float full_scale)
    : bits_(bits), full_scale_(full_scale) {
  if (bits < 2 || bits > 24)
    throw std::invalid_argument("IqQuantizer: bits out of range");
  if (full_scale <= 0.0f)
    throw std::invalid_argument("IqQuantizer: full_scale <= 0");
  max_code_ = (std::int32_t{1} << (bits - 1)) - 1;
  step_ = full_scale_ / static_cast<float>(max_code_);
}

std::int32_t IqQuantizer::quantize(float value) const {
  const float scaled = value / step_;
  // Round half away from zero, as std::lround does, without the libm
  // call. Saturating first leaves |scaled| < max_code + 1 <= 2^23, where
  // a float's fractional part is exact, so truncating and comparing the
  // fraction against one half rounds exactly.
  const float limit = static_cast<float>(max_code_) + 1.0f;
  if (scaled >= limit) return max_code_;
  if (scaled <= -limit) return -max_code_ - 1;
  if (std::isnan(scaled))
    return std::clamp(static_cast<std::int32_t>(std::lround(scaled)),
                      -max_code_ - 1, max_code_);
  auto code = static_cast<std::int32_t>(scaled);
  const float fraction = scaled - static_cast<float>(code);
  if (fraction >= 0.5f) ++code;
  if (fraction <= -0.5f) --code;
  return std::min(code, max_code_);
}

float IqQuantizer::dequantize(std::int32_t code) const {
  return static_cast<float>(code) * step_;
}

IqQuantizer::CodePair IqQuantizer::quantize(dsp::Complex sample) const {
  return CodePair{quantize(sample.real()), quantize(sample.imag())};
}

dsp::Complex IqQuantizer::dequantize(CodePair codes) const {
  return dsp::Complex{dequantize(codes.i), dequantize(codes.q)};
}

dsp::Samples IqQuantizer::roundtrip(const dsp::Samples& in) const {
  dsp::Samples out = in;
  roundtrip_in_place(out);
  return out;
}

void IqQuantizer::roundtrip_in_place(std::span<dsp::Complex> block) const {
  for (auto& s : block) s = dequantize(quantize(s));
}


}  // namespace tinysdr::radio
