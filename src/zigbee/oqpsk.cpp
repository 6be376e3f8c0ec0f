#include "zigbee/oqpsk.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace tinysdr::zigbee {

const std::array<std::uint32_t, 16>& chip_table() {
  // Built from the 802.15.4 base sequence for symbol 0 (0x744AC39B with
  // bit i = chip i): symbols 1..7 are 4-chip cyclic delays; symbols 8..15
  // invert the odd-indexed chips (the "conjugate" half of the table).
  static const std::array<std::uint32_t, 16> table = [] {
    std::array<std::uint32_t, 16> t{};
    std::uint32_t base = 0x744AC39B;
    for (int k = 0; k < 8; ++k) {
      int rot = 4 * k;
      t[static_cast<std::size_t>(k)] =
          rot == 0 ? base : ((base << rot) | (base >> (32 - rot)));
      t[static_cast<std::size_t>(k + 8)] =
          t[static_cast<std::size_t>(k)] ^ 0xAAAAAAAA;
    }
    return t;
  }();
  return table;
}

std::array<bool, kChipsPerSymbol> chips_for(std::uint8_t symbol) {
  if (symbol > 0xF) throw std::invalid_argument("chips_for: not a nibble");
  std::uint32_t word = chip_table()[symbol];
  std::array<bool, kChipsPerSymbol> out{};
  for (std::size_t i = 0; i < kChipsPerSymbol; ++i)
    out[i] = (word >> i) & 1u;
  return out;
}

std::pair<std::uint8_t, int> nearest_symbol_word(std::uint32_t word) {
  std::uint8_t best = 0;
  int best_dist = 33;
  for (std::uint8_t s = 0; s < 16; ++s) {
    int d = __builtin_popcount(word ^ chip_table()[s]);
    if (d < best_dist) {
      best_dist = d;
      best = s;
    }
  }
  return {best, best_dist};
}

std::uint16_t fcs16(std::span<const std::uint8_t> data) {
  // ITU CRC-16 (reflected 0x1021 = 0x8408), init 0x0000 — 802.15.4 FCS.
  std::uint16_t crc = 0x0000;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 1)
        crc = static_cast<std::uint16_t>((crc >> 1) ^ 0x8408);
      else
        crc >>= 1;
    }
  }
  return crc;
}

OqpskModem::OqpskModem(OqpskConfig config) : config_(config) {
  if (config_.samples_per_chip < 2)
    throw std::invalid_argument("OqpskModem: need >= 2 samples/chip");
}

std::vector<std::uint8_t> OqpskModem::frame_symbols(
    std::span<const std::uint8_t> psdu) const {
  if (psdu.size() > kMaxPsdu - 2)
    throw std::invalid_argument("OqpskModem: PSDU too long");

  std::vector<std::uint8_t> bytes;
  bytes.insert(bytes.end(), 4, 0x00);  // preamble: 8 zero symbols
  bytes.push_back(kSfd);
  std::uint16_t fcs = fcs16(psdu);
  bytes.push_back(static_cast<std::uint8_t>(psdu.size() + 2));  // PHR
  bytes.insert(bytes.end(), psdu.begin(), psdu.end());
  bytes.push_back(static_cast<std::uint8_t>(fcs & 0xFF));
  bytes.push_back(static_cast<std::uint8_t>(fcs >> 8));

  std::vector<std::uint8_t> symbols;
  symbols.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    symbols.push_back(b & 0xF);         // low nibble first (802.15.4)
    symbols.push_back((b >> 4) & 0xF);
  }
  return symbols;
}

dsp::Samples OqpskModem::modulate(std::span<const std::uint8_t> psdu) const {
  auto symbols = frame_symbols(psdu);

  // Chip stream.
  std::vector<bool> chips;
  chips.reserve(symbols.size() * kChipsPerSymbol);
  for (std::uint8_t s : symbols) {
    auto seq = chips_for(s);
    chips.insert(chips.end(), seq.begin(), seq.end());
  }

  // O-QPSK synthesis: even chips on I, odd on Q, half-sine pulses of two
  // chip durations, Q offset by one chip.
  const std::uint32_t spc = config_.samples_per_chip;
  const std::size_t pulse_len = 2 * spc;
  const std::size_t total =
      (chips.size() / 2) * pulse_len + pulse_len;  // + Q tail
  std::vector<float> rail_i(total, 0.0f), rail_q(total, 0.0f);

  for (std::size_t k = 0; k * 2 < chips.size(); ++k) {
    float ai = chips[k * 2] ? 1.0f : -1.0f;
    std::size_t start_i = k * pulse_len;
    for (std::size_t j = 0; j < pulse_len; ++j) {
      auto shape = static_cast<float>(std::sin(
          std::numbers::pi * (static_cast<double>(j) + 0.5) /
          static_cast<double>(pulse_len)));
      rail_i[start_i + j] += ai * shape;
    }
    if (k * 2 + 1 < chips.size()) {
      float aq = chips[k * 2 + 1] ? 1.0f : -1.0f;
      std::size_t start_q = k * pulse_len + spc;
      for (std::size_t j = 0; j < pulse_len; ++j) {
        auto shape = static_cast<float>(std::sin(
            std::numbers::pi * (static_cast<double>(j) + 0.5) /
            static_cast<double>(pulse_len)));
        rail_q[start_q + j] += aq * shape;
      }
    }
  }

  dsp::Samples out(total);
  for (std::size_t i = 0; i < total; ++i)
    out[i] = dsp::Complex{rail_i[i], rail_q[i]};
  return out;
}

std::vector<std::uint8_t> OqpskModem::slice_chips(std::span<const dsp::Complex> iq,
                                                  std::size_t offset) const {
  const std::uint32_t spc = config_.samples_per_chip;
  const std::size_t pulse_len = 2 * spc;
  std::vector<std::uint8_t> chips;
  for (std::size_t k = 0;; ++k) {
    std::size_t i_center = offset + k * pulse_len + pulse_len / 2;
    std::size_t q_center = i_center + spc;
    if (q_center >= iq.size()) break;
    chips.push_back(iq[i_center].real() > 0.0f ? 1 : 0);
    chips.push_back(iq[q_center].imag() > 0.0f ? 1 : 0);
  }
  return chips;
}

std::optional<std::vector<std::uint8_t>> OqpskModem::demodulate(
    std::span<const dsp::Complex> iq) const {
  const std::uint32_t spc = config_.samples_per_chip;
  const std::size_t pulse_len = 2 * spc;
  // Need at least the 6-symbol probe window plus slack.
  if (iq.size() < pulse_len * kChipsPerSymbol * 7) return std::nullopt;

  // Joint search over sample phase (rail grid alignment) and chip offset:
  // minimize total despreading distance over a probe window. A one-chip
  // stream misalignment appears as phase offset spc with rails swapped —
  // covered because slicing at phase spc reads what are actually Q pulses
  // on the real rail only for true odd shifts, which the chip-offset
  // search rejects by distance.
  std::size_t best_phase = 0, best_chip_off = 0;
  int best_cost = 1 << 30;
  for (std::size_t phase = 0; phase < pulse_len; ++phase) {
    auto chips = slice_chips(iq, phase);
    for (std::size_t chip_off = 0; chip_off + kChipsPerSymbol * 6 <
                                   chips.size();
         chip_off += 2) {
      if (chip_off >= kChipsPerSymbol) break;
      int cost = 0;
      for (std::size_t s = 0; s < 6; ++s) {
        std::uint32_t word = 0;
        for (std::size_t i = 0; i < kChipsPerSymbol; ++i)
          word |= static_cast<std::uint32_t>(
                      chips[chip_off + s * kChipsPerSymbol + i])
                  << i;
        cost += nearest_symbol_word(word).second;
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_phase = phase;
        best_chip_off = chip_off;
      }
    }
  }

  auto chips = slice_chips(iq, best_phase);
  std::vector<std::uint8_t> symbols;
  for (std::size_t pos = best_chip_off;
       pos + kChipsPerSymbol <= chips.size(); pos += kChipsPerSymbol) {
    std::uint32_t word = 0;
    for (std::size_t i = 0; i < kChipsPerSymbol; ++i)
      word |= static_cast<std::uint32_t>(chips[pos + i]) << i;
    symbols.push_back(nearest_symbol_word(word).first);
  }

  // Hunt for the SFD nibbles (0x7 then 0xA) after at least two preamble
  // zeros; then PHR and PSDU follow.
  for (std::size_t i = 2; i + 4 < symbols.size(); ++i) {
    if (!(symbols[i] == 0x7 && symbols[i + 1] == 0xA)) continue;
    if (symbols[i - 1] != 0x0 || symbols[i - 2] != 0x0) continue;
    std::size_t pos = i + 2;
    if (pos + 2 > symbols.size()) return std::nullopt;
    std::uint8_t phr = static_cast<std::uint8_t>(symbols[pos] |
                                                 (symbols[pos + 1] << 4));
    pos += 2;
    std::size_t frame_len = phr & 0x7F;
    if (frame_len < 2 || frame_len > kMaxPsdu) continue;
    if (pos + frame_len * 2 > symbols.size()) return std::nullopt;
    std::vector<std::uint8_t> body;
    for (std::size_t b = 0; b < frame_len; ++b) {
      body.push_back(static_cast<std::uint8_t>(
          symbols[pos + b * 2] | (symbols[pos + b * 2 + 1] << 4)));
    }
    std::vector<std::uint8_t> psdu(body.begin(), body.end() - 2);
    std::uint16_t fcs = static_cast<std::uint16_t>(
        body[frame_len - 2] | (body[frame_len - 1] << 8));
    if (fcs16(psdu) == fcs) return psdu;
  }
  return std::nullopt;
}

Seconds OqpskModem::airtime(std::size_t psdu_bytes) const {
  // (preamble 4 + SFD 1 + PHR 1 + psdu + FCS 2) bytes at 2 symbols/byte,
  // 62.5 ksym/s.
  double symbols = static_cast<double>(4 + 1 + 1 + psdu_bytes + 2) * 2.0;
  return Seconds{symbols / 62500.0};
}

}  // namespace tinysdr::zigbee
