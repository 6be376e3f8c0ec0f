// Thermal noise and AWGN channel calibrated in absolute RSSI terms.
//
// The paper's evaluation plots PER/SER/BER against RSSI in dBm. We map RSSI
// to sample-domain SNR via the standard receiver noise floor
//     N = -174 dBm/Hz + 10*log10(fs) + NF,
// where fs is the (complex) sampling bandwidth and NF the receiver noise
// figure. The AT86RF215 front-end NF is 3-5 dB per the paper (§3.1.1); we
// default to 4 dB plus a 2 dB implementation margin, which places the
// SF8/BW125 LoRa knee at about -126 dBm as the paper reports.
#pragma once

#include <span>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/types.hpp"

namespace tinysdr::channel {

/// Thermal noise density at 290 K.
inline constexpr double kThermalNoiseDbmPerHz = -174.0;

/// Default receiver noise figure used across the simulation (front-end NF
/// plus implementation margin).
inline constexpr double kDefaultNoiseFigureDb = 6.0;

/// Receiver noise floor over a given bandwidth.
[[nodiscard]] inline Dbm noise_floor(Hertz bandwidth,
                                     double noise_figure_db = kDefaultNoiseFigureDb) {
  return Dbm{kThermalNoiseDbmPerHz + 10.0 * std::log10(bandwidth.value()) +
             noise_figure_db};
}

/// AWGN channel operating on unit-power-normalised baseband blocks.
class AwgnChannel {
 public:
  /// @param sample_rate      complex sample rate (noise bandwidth)
  /// @param noise_figure_db  receiver NF in dB
  AwgnChannel(Hertz sample_rate, double noise_figure_db, Rng rng)
      : sample_rate_(sample_rate),
        noise_figure_db_(noise_figure_db),
        rng_(rng) {}

  [[nodiscard]] Dbm floor() const {
    return noise_floor(sample_rate_, noise_figure_db_);
  }

  /// SNR (dB) a signal at `rssi` sees over this channel's bandwidth.
  [[nodiscard]] double snr_db(Dbm rssi) const { return rssi - floor(); }

  /// Add noise to `signal` so that a unit-mean-power signal corresponds to
  /// the given RSSI. Returns the noisy block; the input represents the
  /// transmitted waveform normalised to unit power.
  [[nodiscard]] dsp::Samples apply(const dsp::Samples& signal, Dbm rssi);

  /// Add noise at an explicit SNR (dB) relative to unit signal power.
  [[nodiscard]] dsp::Samples apply_snr(const dsp::Samples& signal,
                                       double snr_db);

  /// In-place variant of apply_snr for zero-copy pipelines: perturbs
  /// `signal` where it lives (a ring's WriteView, a capture buffer) and
  /// draws from the same RNG in the same per-sample I-then-Q order, so a
  /// block processed through successive add_noise calls is bit-identical
  /// to one apply_snr call over the concatenation.
  void add_noise(std::span<dsp::Complex> signal, double snr_db);

  /// Generate a pure-noise block with the channel's floor power relative to
  /// a unit-power signal at `reference_rssi`.
  [[nodiscard]] dsp::Samples noise_only(std::size_t count, Dbm reference_rssi);

 private:
  Hertz sample_rate_;
  double noise_figure_db_;
  Rng rng_;
};

/// Add complex AWGN at `snr_db` relative to unit signal power to `signal`
/// in place, drawing I then Q of each sample from `rng` in order. All
/// complex AWGN in the simulator is drawn here; splitting a block over
/// successive calls gives the same bytes as one call.
void add_awgn(std::span<dsp::Complex> signal, double snr_db, Rng& rng);

/// Add `b`, scaled by `relative_db` (power dB relative to a's power), onto
/// `a` in place. Blocks may have different lengths; `b` starts at `offset`
/// samples into `a`, and whatever runs past a's end is dropped.
void superpose(std::span<dsp::Complex> a, std::span<const dsp::Complex> b,
               double relative_db, std::size_t offset = 0);

}  // namespace tinysdr::channel
