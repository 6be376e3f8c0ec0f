// LoRa adapters for the unified PHY layer.
//
// Two granularities, matching the paper's two LoRa evaluations:
//   - LoraPacketTx/Rx: full packets (preamble/sync/SFD/header/payload/CRC)
//     through the synchronising receiver — the Fig. 10 PER pipeline. The
//     TX side models either tinySDR's path (modulator + 13-bit DAC) or the
//     SX1276 baseline.
//   - LoraSymbolTx/Rx: raw chirp symbols carved SF bits at a time from the
//     payload bytes, demodulated symbol-aligned — the Fig. 11/15 SER
//     pipeline ("we have access to I/Q samples, we can compute it").
#pragma once

#include <vector>

#include "lora/demodulator.hpp"
#include "lora/modulator.hpp"
#include "lora/sx1276.hpp"
#include "phy/phy.hpp"
#include "radio/quantizer.hpp"

namespace tinysdr::phy {

/// Calibrated LoRa system noise figure: 4 dB front-end NF (AT86RF215,
/// §3.1.1) plus 7.5 dB implementation margin (CFO, quantization, AGC
/// settle, sync jitter folded into one number), placing the SF8/BW125
/// chirp SER knee at about -126 dBm as the paper measures (Fig. 11). The
/// calibration is recorded in EXPERIMENTS.md.
inline constexpr double kLoraSystemNf = 11.5;

struct LoraPhyConfig {
  lora::LoraParams params{8, Hertz::from_kilohertz(125.0)};
  /// Front-end rate; 0 means critical sampling (fs = BW).
  Hertz sample_rate{0.0};
  /// Demodulator front-end FIR length (paper: 14).
  std::size_t fir_taps = 14;
  /// Model the SX1276 baseline transmitter instead of tinySDR's 13-bit
  /// DAC path.
  bool sx1276_tx = false;

  [[nodiscard]] Hertz rate() const {
    return sample_rate.value() > 0.0 ? sample_rate : params.bandwidth;
  }
};

/// Payload bytes -> chirp symbol values, SF bits per symbol MSB-first.
/// Trailing bits that do not fill a symbol are dropped; TX and RX share
/// this mapping so the scorer knows the expected symbols.
[[nodiscard]] std::vector<std::uint32_t> symbols_from_bytes(
    std::span<const std::uint8_t> payload, int sf);

class LoraPacketTx final : public PhyTx {
 public:
  explicit LoraPacketTx(LoraPhyConfig config = {});

  [[nodiscard]] Protocol protocol() const override { return Protocol::kLora; }
  [[nodiscard]] Hertz sample_rate() const override { return config_.rate(); }
  [[nodiscard]] std::size_t max_payload() const override {
    return lora::kMaxPayload;
  }
  void modulate(std::span<const std::uint8_t> payload,
                dsp::Samples& out) const override;

 private:
  LoraPhyConfig config_;
  lora::Modulator modulator_;
  lora::Sx1276Model sx1276_;
  radio::IqQuantizer dac_;
};

class LoraPacketRx final : public PhyRx {
 public:
  explicit LoraPacketRx(LoraPhyConfig config = {});

  [[nodiscard]] Protocol protocol() const override { return Protocol::kLora; }
  [[nodiscard]] Hertz sample_rate() const override { return config_.rate(); }
  [[nodiscard]] FrameResult demodulate(
      std::span<const dsp::Complex> iq,
      std::span<const std::uint8_t> reference) const override;

 private:
  LoraPhyConfig config_;
  lora::Demodulator demod_;
};

class LoraSymbolTx final : public PhyTx {
 public:
  explicit LoraSymbolTx(LoraPhyConfig config = {});

  [[nodiscard]] Protocol protocol() const override { return Protocol::kLora; }
  [[nodiscard]] Hertz sample_rate() const override { return config_.rate(); }
  /// Bounded only by how many symbols the caller wants per trial.
  [[nodiscard]] std::size_t max_payload() const override { return 4096; }
  void modulate(std::span<const std::uint8_t> payload,
                dsp::Samples& out) const override;

 private:
  LoraPhyConfig config_;
  lora::ChirpGenerator chirps_;
};

class LoraSymbolRx final : public PhyRx {
 public:
  explicit LoraSymbolRx(LoraPhyConfig config = {});

  [[nodiscard]] Protocol protocol() const override { return Protocol::kLora; }
  [[nodiscard]] Hertz sample_rate() const override { return config_.rate(); }
  [[nodiscard]] FrameResult demodulate(
      std::span<const dsp::Complex> iq,
      std::span<const std::uint8_t> reference) const override;

 private:
  LoraPhyConfig config_;
  lora::Demodulator demod_;
};

}  // namespace tinysdr::phy
