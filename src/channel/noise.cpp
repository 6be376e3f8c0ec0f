#include "channel/noise.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace tinysdr::channel {

dsp::Samples AwgnChannel::apply(const dsp::Samples& signal, Dbm rssi) {
  return apply_snr(signal, snr_db(rssi));
}

dsp::Samples AwgnChannel::apply_snr(const dsp::Samples& signal,
                                    double snr_db) {
  dsp::Samples out = signal;
  add_noise(out, snr_db);
  return out;
}

void AwgnChannel::add_noise(std::span<dsp::Complex> signal, double snr_db) {
  add_awgn(signal, snr_db, rng_);
}

dsp::Samples AwgnChannel::noise_only(std::size_t count, Dbm reference_rssi) {
  // -0 is the additive identity for every float, +0 and -0 included, so
  // the block holds exactly the scaled noise.
  dsp::Samples out(count, dsp::Complex{-0.0f, -0.0f});
  add_awgn(out, snr_db(reference_rssi), rng_);
  return out;
}

void add_awgn(std::span<dsp::Complex> signal, double snr_db, Rng& rng) {
  // Unit signal power assumed; complex noise power = 10^(-snr/10), split
  // evenly between I and Q.
  double noise_power = std::pow(10.0, -snr_db / 10.0);
  auto sigma = static_cast<float>(std::sqrt(noise_power / 2.0));
  constexpr std::size_t kBlock = 64;  // one fill_gaussian block of pairs
  std::array<float, 2 * kBlock> g;
  for (std::size_t i = 0; i < signal.size(); i += kBlock) {
    const auto block = signal.subspan(i, std::min(kBlock, signal.size() - i));
    rng.fill_gaussian(std::span{g}.first(2 * block.size()));
    for (std::size_t k = 0; k < block.size(); ++k)
      block[k] += dsp::Complex{sigma * g[2 * k], sigma * g[2 * k + 1]};
  }
}

void superpose(std::span<dsp::Complex> a, std::span<const dsp::Complex> b,
               double relative_db, std::size_t offset) {
  if (offset >= a.size()) return;
  auto scale = static_cast<float>(std::pow(10.0, relative_db / 20.0));
  const std::size_t n = std::min(b.size(), a.size() - offset);
  for (std::size_t i = 0; i < n; ++i) a[offset + i] += b[i] * scale;
}

}  // namespace tinysdr::channel
