#include "lora/modulator.hpp"

namespace tinysdr::lora {

namespace {

dsp::Samples synthesize_preamble(const LoraParams& p,
                                 const ChirpGenerator& chirps) {
  dsp::Samples out;
  out.reserve(static_cast<std::size_t>(
      (p.preamble_symbols + 2) * chirps.samples_per_symbol() +
      chirps.samples_per_symbol() * 9 / 4));

  for (int i = 0; i < p.preamble_symbols; ++i) {
    auto sym = chirps.symbol(0, ChirpDirection::kUp);
    out.insert(out.end(), sym.begin(), sym.end());
  }
  for (std::uint32_t sync : {kSyncSymbol1, kSyncSymbol2}) {
    auto sym = chirps.symbol(sync & (p.chips() - 1), ChirpDirection::kUp);
    out.insert(out.end(), sym.begin(), sym.end());
  }
  // SFD: 2.25 downchirps.
  for (int i = 0; i < 2; ++i) {
    auto sym = chirps.symbol(0, ChirpDirection::kDown);
    out.insert(out.end(), sym.begin(), sym.end());
  }
  auto quarter = chirps.partial_symbol(0.25, ChirpDirection::kDown);
  out.insert(out.end(), quarter.begin(), quarter.end());
  return out;
}

}  // namespace

Modulator::Modulator(LoraParams params, Hertz sample_rate)
    : codec_(params),
      chirps_(params, sample_rate),
      preamble_(synthesize_preamble(codec_.params(), chirps_)) {}

void Modulator::append_symbols(std::span<const std::uint32_t> symbols,
                               dsp::Samples& out) const {
  out.reserve(out.size() + preamble_.size() +
              symbols.size() * chirps_.samples_per_symbol());
  out.insert(out.end(), preamble_.begin(), preamble_.end());
  for (std::uint32_t s : symbols) {
    auto sym = chirps_.symbol(s, ChirpDirection::kUp);
    out.insert(out.end(), sym.begin(), sym.end());
  }
}

dsp::Samples Modulator::modulate_symbols(
    std::span<const std::uint32_t> symbols) const {
  dsp::Samples out;
  append_symbols(symbols, out);
  return out;
}

dsp::Samples Modulator::modulate(std::span<const std::uint8_t> payload) const {
  return modulate_symbols(codec_.encode(payload).symbols);
}

void Modulator::modulate(std::span<const std::uint8_t> payload,
                         dsp::Samples& out) const {
  append_symbols(codec_.encode(payload).symbols, out);
}

std::size_t Modulator::packet_samples(std::size_t payload_bytes) const {
  const auto& p = codec_.params();
  std::size_t preamble_syms = static_cast<std::size_t>(p.preamble_symbols) + 2;
  std::size_t sps = chirps_.samples_per_symbol();
  std::size_t sfd = sps * 9 / 4;
  return preamble_syms * sps + sfd + codec_.symbol_count(payload_bytes) * sps;
}

}  // namespace tinysdr::lora
