// LoRa modulator (paper Fig. 6a): Packet Generator -> Chirp Generator ->
// I/Q stream. Produces the complete packet waveform: preamble upchirps,
// sync word, 2.25-downchirp SFD, then payload chirps from the PacketCodec.
#pragma once

#include <span>

#include "dsp/types.hpp"
#include "lora/chirp.hpp"
#include "lora/packet.hpp"

namespace tinysdr::lora {

class Modulator {
 public:
  Modulator(LoraParams params, Hertz sample_rate);

  [[nodiscard]] const LoraParams& params() const { return codec_.params(); }
  [[nodiscard]] const ChirpGenerator& chirps() const { return chirps_; }

  /// Full packet waveform for a payload.
  [[nodiscard]] dsp::Samples modulate(std::span<const std::uint8_t> payload) const;

  /// Append the full packet waveform for a payload to `out`.
  void modulate(std::span<const std::uint8_t> payload, dsp::Samples& out) const;

  /// Waveform for raw symbol values (no header/FEC) with the standard
  /// preamble/sync/SFD — used by the symbol-error-rate evaluations.
  [[nodiscard]] dsp::Samples modulate_symbols(
      std::span<const std::uint32_t> symbols) const;

  /// Just the preamble + sync + SFD section. It is the same for every
  /// packet, so it is synthesised once, at construction.
  [[nodiscard]] const dsp::Samples& preamble_waveform() const {
    return preamble_;
  }

  /// Samples in a full packet for a payload size.
  [[nodiscard]] std::size_t packet_samples(std::size_t payload_bytes) const;

 private:
  void append_symbols(std::span<const std::uint32_t> symbols,
                      dsp::Samples& out) const;

  PacketCodec codec_;
  ChirpGenerator chirps_;
  dsp::Samples preamble_;
};

}  // namespace tinysdr::lora
