// GFSK modulation and demodulation for BLE (paper §4.2).
//
// Modulator (the FPGA pipeline the paper describes): "we upsample and apply
// a Gaussian filter to the bitstream. This gives us the desired changes in
// frequency which we integrate to get the phase. We then feed the phase to
// sine and cosine functions to get the final I and Q samples."
//
// Demodulator (reference receiver standing in for the TI CC2650 used to
// measure BER in Fig. 12): quadrature discriminator (arg of s[n]*conj(s[n-1]))
// followed by per-symbol integrate-and-dump and a sign decision.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "dsp/types.hpp"

namespace tinysdr::ble {

struct GfskConfig {
  double bitrate = 1e6;          ///< BLE 4.x: 1 Mbps (BLE 5: 2 Mbps)
  double modulation_index = 0.5; ///< BLE allows 0.45..0.55
  double bt = 0.5;               ///< Gaussian BT product
  std::uint32_t samples_per_bit = 4;

  [[nodiscard]] Hertz sample_rate() const {
    return Hertz{bitrate * samples_per_bit};
  }
  /// Peak frequency deviation: h * bitrate / 2.
  [[nodiscard]] double deviation_hz() const {
    return modulation_index * bitrate / 2.0;
  }
};

class GfskModulator {
 public:
  explicit GfskModulator(GfskConfig config = {});

  [[nodiscard]] const GfskConfig& config() const { return config_; }

  /// Modulate a bit sequence to baseband I/Q (unit envelope).
  [[nodiscard]] dsp::Samples modulate(const std::vector<bool>& bits) const;

 private:
  GfskConfig config_;
  std::vector<double> gaussian_;
};

class GfskDemodulator {
 public:
  explicit GfskDemodulator(GfskConfig config = {});

  /// Recover bits from baseband I/Q. `bit_offset_hint` skips leading
  /// samples (e.g. after coarse packet detection).
  [[nodiscard]] std::vector<bool> demodulate(std::span<const dsp::Complex> iq,
                                             std::size_t sample_offset = 0) const;

  /// Timing recovery: find the sample offset (0..samples_per_bit-1) that
  /// maximises the eye opening over the preamble region.
  [[nodiscard]] std::size_t estimate_timing(std::span<const dsp::Complex> iq) const;

 private:
  GfskConfig config_;
};

/// BER against a known reference, the way a BER tester measures it: search
/// a small alignment window (the demodulated stream can lead/lag by a few
/// bits from discriminator start-up and timing recovery), count errors over
/// the overlap, and require at least 90% of the reference to be covered
/// (otherwise the measurement is void and 1.0 is returned).
[[nodiscard]] double aligned_ber(const std::vector<bool>& reference,
                                 const std::vector<bool>& rx,
                                 int max_shift = 8);

}  // namespace tinysdr::ble
