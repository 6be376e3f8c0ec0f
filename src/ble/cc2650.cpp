#include "ble/cc2650.hpp"

namespace tinysdr::ble {

std::optional<Cc2650Model::Reception> Cc2650Model::receive(
    const dsp::Samples& waveform, const std::vector<bool>& reference_bits,
    int channel_index, Dbm rssi, Rng& rng) const {
  channel::AwgnChannel chan{config_.sample_rate(), kNoiseFigureDb, rng};
  auto noisy = chan.apply(waveform, rssi);

  GfskDemodulator demod{config_};
  std::size_t timing = demod.estimate_timing(noisy);
  auto bits = demod.demodulate(noisy, timing);

  auto parsed = parse_air_bits(bits, channel_index);
  if (!parsed) return std::nullopt;

  Reception out;
  out.adv = *parsed;
  out.ber = aligned_ber(reference_bits, bits);
  return out;
}

}  // namespace tinysdr::ble
