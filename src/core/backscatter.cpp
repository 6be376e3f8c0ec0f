#include "core/backscatter.hpp"

#include <cmath>
#include <numbers>

#include "channel/noise.hpp"
#include "dsp/nco.hpp"

namespace tinysdr::core {

BackscatterLink::BackscatterLink(BackscatterConfig config) : config_(config) {}

dsp::Samples BackscatterLink::carrier(std::size_t samples) const {
  return dsp::generate_tone(config_.tone_cycles_per_sample, samples);
}

dsp::Samples BackscatterLink::tag_modulate(
    const std::vector<bool>& bits) const {
  const std::uint32_t spb = config_.samples_per_bit();
  auto tone = carrier(bits.size() * spb);
  // Reflection path: attenuated, with an arbitrary fixed path phase.
  auto refl = static_cast<float>(
      std::pow(10.0, config_.reflection_db / 20.0));
  dsp::Complex path_phase{0.3090f, 0.9511f};  // 72 degrees
  dsp::Samples out(tone.size());
  for (std::size_t i = 0; i < tone.size(); ++i) {
    bool bit = bits[i / spb];
    dsp::Complex reflected =
        bit ? tone[i] * refl * path_phase : dsp::Complex{0.0f, 0.0f};
    out[i] = tone[i] + reflected;
  }
  return out;
}

std::vector<bool> BackscatterLink::decode(const dsp::Samples& rx,
                                          std::size_t bit_count) const {
  const std::uint32_t spb = config_.samples_per_bit();
  // Envelope and its mean (the direct carrier level).
  std::vector<double> env(rx.size());
  double mean = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    env[i] = std::abs(rx[i]);
    mean += env[i];
  }
  mean /= static_cast<double>(rx.size());

  // Integrate the mean-removed envelope per bit; the sign distribution is
  // bimodal, so threshold at the midpoint of the observed extremes.
  std::vector<double> dumps;
  for (std::size_t b = 0; b < bit_count; ++b) {
    double acc = 0.0;
    std::size_t start = b * spb;
    if (start + spb > env.size()) break;
    for (std::uint32_t s = 0; s < spb; ++s) acc += env[start + s] - mean;
    dumps.push_back(acc);
  }
  if (dumps.empty()) return {};
  double lo = dumps[0], hi = dumps[0];
  for (double d : dumps) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  double threshold = (lo + hi) / 2.0;
  std::vector<bool> bits;
  bits.reserve(dumps.size());
  for (double d : dumps) bits.push_back(d > threshold);
  return bits;
}

double backscatter_ber(const BackscatterConfig& config, std::size_t bits,
                       double carrier_snr_db, Rng& rng) {
  BackscatterLink link{config};
  std::vector<bool> tx(bits);
  for (auto&& b : tx) b = rng.next_bool(0.5);
  // Guarantee both symbols appear so the threshold is well defined.
  if (bits >= 2) {
    tx[0] = false;
    tx[1] = true;
  }
  auto rf = link.tag_modulate(tx);

  // AWGN at the stated carrier SNR (carrier power is ~1).
  channel::add_awgn(rf, carrier_snr_db, rng);

  auto rx = link.decode(rf, bits);
  std::size_t errors = 0;
  std::size_t n = std::min(tx.size(), rx.size());
  for (std::size_t i = 0; i < n; ++i)
    if (tx[i] != rx[i]) ++errors;
  errors += bits - n;
  return static_cast<double>(errors) / static_cast<double>(bits);
}

}  // namespace tinysdr::core
