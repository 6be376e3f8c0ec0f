// SX1276 LoRa transceiver model — the paper's comparison baseline and the
// OTA backbone radio.
//
// The SX1276 implements the same CSS PHY; what distinguishes it in the
// evaluation is its datasheet sensitivity (the reference curves in
// Figs. 10/11) and that it exposes only packet-level results (PER) — "the
// Semtech LoRa transceiver does not give access to symbol error rate"
// (§5.2). The model wraps the shared CSS modulator as the Fig. 10
// baseline transmitter (phy::LoraPacketTx with sx1276_tx).
#pragma once

#include "lora/modulator.hpp"

namespace tinysdr::lora {

class Sx1276Model {
 public:
  explicit Sx1276Model(LoraParams params);

  [[nodiscard]] const LoraParams& params() const { return params_; }

  /// Generate a packet waveform (critical-rate baseband, unit power).
  [[nodiscard]] dsp::Samples transmit(
      std::span<const std::uint8_t> payload) const;

  /// Datasheet sensitivity for the configured params.
  [[nodiscard]] Dbm sensitivity() const {
    return sx1276_sensitivity(params_.sf, params_.bandwidth);
  }

  /// DC supply draws (datasheet, 3.3 V rail).
  [[nodiscard]] static Milliwatts rx_power() { return Milliwatts{39.0}; }
  [[nodiscard]] static Milliwatts tx_power(Dbm out) {
    return Milliwatts{35.0 + out.milliwatts() * 2.4};
  }

 private:
  LoraParams params_;
  Modulator modulator_;
};

}  // namespace tinysdr::lora
