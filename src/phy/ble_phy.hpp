// BLE beacon adapter for the unified PHY layer — the Fig. 12 pipeline.
//
// TX assembles a full ADV_NONCONN_IND on-air bit sequence (preamble,
// access address, whitened PDU + CRC24) for the payload as AdvData and
// GFSK-modulates it; RX demodulates with timing recovery and scores
// aligned bit errors against the reference air bits, the way the paper's
// CC2650 BER measurement does.
#pragma once

#include "ble/gfsk.hpp"
#include "phy/phy.hpp"

namespace tinysdr::phy {

/// Calibrated BLE system noise figure: places the BER 1e-3 knee at about
/// -94 dBm into the CC2650-class receiver model, within 2 dB of the
/// datasheet sensitivity as the paper's Fig. 12 shows.
inline constexpr double kBleSystemNf = 4.0;

class BleBeaconTx final : public PhyTx {
 public:
  [[nodiscard]] Protocol protocol() const override { return Protocol::kBle; }
  [[nodiscard]] Hertz sample_rate() const override {
    return ble::GfskConfig{}.sample_rate();
  }
  /// AdvData is capped at 31 bytes by the spec.
  [[nodiscard]] std::size_t max_payload() const override { return 31; }
  void modulate(std::span<const std::uint8_t> payload,
                dsp::Samples& out) const override;

 private:
  ble::GfskModulator modulator_;
};

class BleBeaconRx final : public PhyRx {
 public:
  [[nodiscard]] Protocol protocol() const override { return Protocol::kBle; }
  [[nodiscard]] Hertz sample_rate() const override {
    return ble::GfskConfig{}.sample_rate();
  }
  [[nodiscard]] FrameResult demodulate(
      std::span<const dsp::Complex> iq,
      std::span<const std::uint8_t> reference) const override;

 private:
  ble::GfskDemodulator demod_;
};

}  // namespace tinysdr::phy
