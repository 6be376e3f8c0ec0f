#include "lora/sx1276.hpp"

namespace tinysdr::lora {

Sx1276Model::Sx1276Model(LoraParams params)
    : params_(params), modulator_(params, params.bandwidth) {}

dsp::Samples Sx1276Model::transmit(
    std::span<const std::uint8_t> payload) const {
  return modulator_.modulate(payload);
}

}  // namespace tinysdr::lora
