#include "phy/lora_phy.hpp"

#include <bit>

namespace tinysdr::phy {

std::vector<std::uint32_t> symbols_from_bytes(
    std::span<const std::uint8_t> payload, int sf) {
  std::vector<std::uint32_t> symbols;
  const std::size_t total_bits = payload.size() * 8;
  symbols.reserve(total_bits / static_cast<std::size_t>(sf));
  std::uint32_t acc = 0;
  int held = 0;
  for (std::uint8_t byte : payload) {
    acc = (acc << 8) | byte;
    held += 8;
    while (held >= sf) {
      held -= sf;
      symbols.push_back((acc >> held) & ((std::uint32_t{1} << sf) - 1));
    }
    acc &= (std::uint32_t{1} << held) - 1;
  }
  return symbols;
}

// ------------------------------------------------------------- packet TX

LoraPacketTx::LoraPacketTx(LoraPhyConfig config)
    : config_(config),
      modulator_(config.params, config.rate()),
      sx1276_(config.params) {}

void LoraPacketTx::modulate(std::span<const std::uint8_t> payload,
                            dsp::Samples& out) const {
  if (config_.sx1276_tx) {
    dsp::Samples wave = sx1276_.transmit(payload);
    out.insert(out.end(), wave.begin(), wave.end());
    return;
  }
  const std::size_t start = out.size();
  modulator_.modulate(payload, out);
  dac_.roundtrip_in_place(std::span{out}.subspan(start));
}

// ------------------------------------------------------------- packet RX

LoraPacketRx::LoraPacketRx(LoraPhyConfig config)
    : config_(config),
      demod_(config.params, config.rate(), config.fir_taps) {}

FrameResult LoraPacketRx::demodulate(
    std::span<const dsp::Complex> iq,
    std::span<const std::uint8_t> reference) const {
  auto result = demod_.receive(iq);
  if (!result) return score_lost_packet(reference);
  return score_packet(reference, result->packet.payload,
                      result->packet.header_valid &&
                          result->packet.crc_valid);
}

// ------------------------------------------------------------- symbol TX

LoraSymbolTx::LoraSymbolTx(LoraPhyConfig config)
    : config_(config), chirps_(config.params, config.rate()) {}

void LoraSymbolTx::modulate(std::span<const std::uint8_t> payload,
                            dsp::Samples& out) const {
  auto symbols = symbols_from_bytes(payload, config_.params.sf);
  out.reserve(out.size() + symbols.size() * chirps_.samples_per_symbol());
  for (std::uint32_t value : symbols) {
    auto sym = chirps_.symbol(value, lora::ChirpDirection::kUp);
    out.insert(out.end(), sym.begin(), sym.end());
  }
}

// ------------------------------------------------------------- symbol RX

LoraSymbolRx::LoraSymbolRx(LoraPhyConfig config)
    : config_(config),
      demod_(config.params, config.rate(), config.fir_taps) {}

FrameResult LoraSymbolRx::demodulate(
    std::span<const dsp::Complex> iq,
    std::span<const std::uint8_t> reference) const {
  auto tx = symbols_from_bytes(reference, config_.params.sf);
  FrameResult r;
  r.symbols = tx.size();
  r.bits = tx.size() * static_cast<std::size_t>(config_.params.sf);
  if (tx.empty()) {
    r.frame_ok = true;
    return r;
  }
  auto conditioned = demod_.condition(iq);
  auto rx = demod_.demodulate_aligned(conditioned, 0, tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) {
    std::uint32_t got = i < rx.size() ? rx[i] : ~tx[i];
    if (got != tx[i]) {
      ++r.symbol_errors;
      r.bit_errors += static_cast<std::uint64_t>(std::popcount(
          (got ^ tx[i]) & ((std::uint32_t{1} << config_.params.sf) - 1)));
    }
  }
  r.frame_ok = r.symbol_errors == 0;
  return r;
}

}  // namespace tinysdr::phy
