// LoRa demodulator (paper Fig. 6b): I/Q deserializer -> 14-tap FIR ->
// buffer -> dechirp (complex multiply with the base chirp) -> FFT ->
// symbol detector, plus preamble/SFD synchronisation.
//
// Synchronisation exploits the CSS time/frequency duality: a window that
// starts tau samples into a preamble upchirp dechirps to a tone in FFT bin
// tau, so a run of consistent preamble peaks yields the timing correction
// directly. Chirp direction (the paper's up/down detector) is decided by
// comparing the dechirped FFT peak against the base upchirp and downchirp.
// CFO is estimated from the preamble-vs-SFD bin split and corrected.
#pragma once

#include <optional>
#include <span>

#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "lora/chirp.hpp"
#include "lora/packet.hpp"

namespace tinysdr::lora {

struct DemodResult {
  DecodedPacket packet;
  std::size_t payload_start = 0;       ///< critical-rate sample index
  double preamble_peak_snr_db = 0.0;   ///< peak/mean ratio at sync time
  std::uint32_t timing_offset = 0;     ///< estimated tau (samples)
};

class Demodulator {
 public:
  /// @param params       LoRa configuration to listen for
  /// @param sample_rate  input rate, integer multiple of BW
  /// @param fir_taps     front-end FIR length (paper: 14)
  Demodulator(LoraParams params, Hertz sample_rate, std::size_t fir_taps = 14);

  [[nodiscard]] const LoraParams& params() const { return params_; }

  /// Demodulate one raw chirp symbol from a critical-rate, symbol-aligned
  /// window of 2^SF samples.
  [[nodiscard]] std::uint32_t demodulate_symbol(
      std::span<const dsp::Complex> window) const;

  /// Channel activity detection (the LoRa "CAD" primitive): dechirp two
  /// consecutive symbol windows and report whether either shows a chirp.
  /// Costs two symbol times instead of a full preamble — the cheap carrier
  /// sense the DeepSense work the paper cites [41] builds on.
  /// The default threshold keeps the per-window false-alarm rate in the
  /// 1e-3 class (noise-only peak-to-mean over 2^SF bins concentrates near
  /// 10*log10(ln 2^SF) ~ 7.4 dB with a heavy upper tail).
  [[nodiscard]] bool channel_activity(
      std::span<const dsp::Complex> conditioned,
      double threshold_db = 11.0) const;

  /// Front-end: FIR low-pass then decimate to critical sampling.
  [[nodiscard]] dsp::Samples condition(std::span<const dsp::Complex> rf) const;

  /// Symbol-level demodulation of `count` symbols from conditioned samples
  /// starting at `offset` (known-alignment path used for SER evaluation).
  [[nodiscard]] std::vector<std::uint32_t> demodulate_aligned(
      std::span<const dsp::Complex> conditioned, std::size_t offset,
      std::size_t count) const;

  /// Full receive chain: condition, synchronise on the preamble, locate the
  /// SFD, demodulate and decode the payload. Returns nullopt when no packet
  /// is found.
  [[nodiscard]] std::optional<DemodResult> receive(
      std::span<const dsp::Complex> rf,
      std::optional<std::size_t> implicit_length = std::nullopt) const;

  /// Synchronisation outcome (exposed for tests and the concurrent
  /// receiver).
  struct SyncInfo {
    std::size_t payload_start;   ///< index into conditioned samples
    std::uint32_t timing_offset;
    double cfo_bins;             ///< estimated CFO in FFT-bin units
    double peak_snr_db;
  };
  [[nodiscard]] std::optional<SyncInfo> synchronize(
      std::span<const dsp::Complex> conditioned) const;

 private:
  /// Dechirp `window` against `base` into `scratch` (2^SF samples), FFT it
  /// and return the peak bin and its peak-to-mean ratio (dB). The scratch
  /// is caller-owned because one const Demodulator is shared across sweep
  /// workers; each synchronize/demodulate_aligned call allocates it once.
  [[nodiscard]] std::pair<std::size_t, double> dechirp_peak(
      std::span<const dsp::Complex> window, const dsp::Samples& base,
      std::span<dsp::Complex> scratch) const;

  LoraParams params_;
  std::uint32_t oversampling_;
  dsp::FirFilter fir_;
  ChirpGenerator chirps_;       ///< critical-rate chirp generator
  dsp::Samples base_up_;
  dsp::Samples base_down_;
  dsp::FftPlan fft_;
};

}  // namespace tinysdr::lora
