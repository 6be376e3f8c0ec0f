// IEEE 802.15.4 O-QPSK PHY (the "Zigbee" PHY the paper lists among the
// protocols tinySDR's 4 MHz / 2.4 GHz front end supports).
//
// 2.4 GHz band, 250 kb/s: each 4-bit symbol maps to one of 16
// quasi-orthogonal 32-chip PN sequences at 2 Mchip/s; chips are split
// even->I / odd->Q with a half-chip offset and half-sine pulse shaping
// (O-QPSK == MSK up to the mapping). At 2 samples/chip this runs exactly at
// the AT86RF215's 4 MHz I/Q rate.
//
// Frame (802.15.4 PPDU): preamble (8 zero symbols), SFD 0xA7, 7-bit PHR
// length, PSDU, 16-bit FCS (ITU CRC-16, LSB-first, init 0).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "dsp/types.hpp"

namespace tinysdr::zigbee {

inline constexpr std::size_t kChipsPerSymbol = 32;
inline constexpr double kChipRate = 2e6;
inline constexpr double kBitRate = 250e3;
inline constexpr std::uint8_t kSfd = 0xA7;
inline constexpr std::size_t kMaxPsdu = 127;

/// The 16 standard PN sequences (chip 0 first, as a 32-bit word LSB-first).
[[nodiscard]] const std::array<std::uint32_t, 16>& chip_table();

/// Expand a 4-bit symbol to its chip sequence.
[[nodiscard]] std::array<bool, kChipsPerSymbol> chips_for(std::uint8_t symbol);

/// Min-Hamming-distance decision over the table for a packed 32-chip word
/// (bit i = chip i); returns (symbol, distance).
[[nodiscard]] std::pair<std::uint8_t, int> nearest_symbol_word(
    std::uint32_t word);

/// 802.15.4 FCS: reflected CRC-16 (poly 0x1021 reversed = 0x8408), init 0.
[[nodiscard]] std::uint16_t fcs16(std::span<const std::uint8_t> data);

struct OqpskConfig {
  std::uint32_t samples_per_chip = 2;  ///< 2 -> 4 MHz at 2 Mchip/s

  [[nodiscard]] Hertz sample_rate() const {
    return Hertz{kChipRate * samples_per_chip};
  }
};

class OqpskModem {
 public:
  explicit OqpskModem(OqpskConfig config = {});

  [[nodiscard]] const OqpskConfig& config() const { return config_; }

  /// Symbol stream of a full PPDU (preamble + SFD + PHR + PSDU + FCS),
  /// 2 symbols per byte, low nibble first (802.15.4 bit order).
  /// @throws std::invalid_argument if psdu exceeds 125 B (PHR adds FCS).
  [[nodiscard]] std::vector<std::uint8_t> frame_symbols(
      std::span<const std::uint8_t> psdu) const;

  /// Full baseband waveform (half-sine O-QPSK, unit envelope).
  [[nodiscard]] dsp::Samples modulate(std::span<const std::uint8_t> psdu) const;

  /// Receive: chip-rate sampling, preamble/SFD sync, despread, FCS check.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> demodulate(
      std::span<const dsp::Complex> iq) const;

  /// PPDU airtime at 250 kb/s (62.5 ksym/s).
  [[nodiscard]] Seconds airtime(std::size_t psdu_bytes) const;

 private:
  /// Hard chip decisions (0/1) from a waveform, starting at `offset`.
  [[nodiscard]] std::vector<std::uint8_t> slice_chips(std::span<const dsp::Complex> iq,
                                                      std::size_t offset) const;

  OqpskConfig config_;
};

}  // namespace tinysdr::zigbee
