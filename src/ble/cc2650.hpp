// TI CC2650 receiver model — the commercial BLE chip the paper uses to
// measure tinySDR's beacon BER (Fig. 12). Wraps the reference GFSK
// demodulator with the chip's front-end noise figure; its datasheet
// sensitivity (-97 dBm at BER 1e-3; the paper's plot places tinySDR within
// 2 dB of it) is exposed for the comparison line.
#pragma once

#include <optional>

#include "ble/gfsk.hpp"
#include "ble/packet.hpp"
#include "channel/noise.hpp"

namespace tinysdr::ble {

class Cc2650Model {
 public:
  /// Datasheet sensitivity at BER 10^-3 for 1 Mbps BLE.
  static constexpr double kSensitivityDbm = -97.0;
  /// Receiver noise figure calibrated to that sensitivity.
  static constexpr double kNoiseFigureDb = 5.5;

  explicit Cc2650Model(GfskConfig config = {}) : config_(config) {}

  /// Receive a beacon waveform at a given RSSI; returns the parsed packet
  /// and the measured BER over the air bits (nullopt if the packet failed
  /// CRC or was never found).
  struct Reception {
    ParsedAdv adv;
    double ber;  ///< bit errors / air bits (vs the reference bits)
  };
  [[nodiscard]] std::optional<Reception> receive(
      const dsp::Samples& waveform, const std::vector<bool>& reference_bits,
      int channel_index, Dbm rssi, Rng& rng) const;

 private:
  GfskConfig config_;
};

}  // namespace tinysdr::ble
