#include "ble/gfsk.hpp"

#include <cmath>
#include <numbers>

#include "dsp/gaussian.hpp"
#include "dsp/nco.hpp"
#include "obs/profile.hpp"

namespace tinysdr::ble {

GfskModulator::GfskModulator(GfskConfig config)
    : config_(config),
      gaussian_(dsp::design_gaussian(config.bt, config.samples_per_bit, 3)) {}

dsp::Samples GfskModulator::modulate(const std::vector<bool>& bits) const {
  const std::uint32_t sps = config_.samples_per_bit;

  // NRZ frequency pulses, upsampled (rectangular hold).
  std::vector<double> freq_pulses;
  freq_pulses.reserve(bits.size() * sps);
  for (bool bit : bits)
    for (std::uint32_t s = 0; s < sps; ++s)
      freq_pulses.push_back(bit ? 1.0 : -1.0);

  // Gaussian pulse shaping; drop the filter's group delay so bit k's
  // center stays at sample k*sps + sps/2 (the hardware pipeline aligns the
  // same way), and keep exactly sps samples per bit.
  auto shaped = dsp::convolve(freq_pulses, gaussian_);
  const std::size_t group_delay = (gaussian_.size() - 1) / 2;
  shaped.erase(shaped.begin(),
               shaped.begin() + static_cast<std::ptrdiff_t>(group_delay));
  shaped.resize(freq_pulses.size());

  // Frequency -> phase (integration), phase -> I/Q via the shared LUT,
  // exactly the hardware pipeline.
  const double dev_cycles_per_sample =
      config_.deviation_hz() / config_.sample_rate().value();
  dsp::Samples out;
  out.reserve(shaped.size());
  double phase = 0.0;
  const auto& lut = dsp::SinCosLut::instance();
  for (double f : shaped) {
    phase += dev_cycles_per_sample * f;
    double wrapped = phase - std::floor(phase);
    out.push_back(
        lut.lookup(static_cast<std::uint32_t>(wrapped * 4294967296.0)));
  }
  return out;
}

GfskDemodulator::GfskDemodulator(GfskConfig config) : config_(config) {}

std::vector<bool> GfskDemodulator::demodulate(std::span<const dsp::Complex> iq,
                                              std::size_t sample_offset) const {
  obs::ProfileScope prof{"gfsk_demod"};
  const std::uint32_t sps = config_.samples_per_bit;
  std::vector<bool> bits;
  if (iq.size() <= sample_offset + 1) return bits;

  // Quadrature discriminator: instantaneous frequency per sample.
  std::vector<double> freq;
  freq.reserve(iq.size() - sample_offset - 1);
  for (std::size_t i = sample_offset + 1; i < iq.size(); ++i) {
    dsp::Complex d = iq[i] * std::conj(iq[i - 1]);
    freq.push_back(std::arg(d));
  }

  // Integrate-and-dump over each bit period, decide by sign.
  for (std::size_t start = 0; start + sps <= freq.size(); start += sps) {
    double acc = 0.0;
    for (std::uint32_t s = 0; s < sps; ++s) acc += freq[start + s];
    bits.push_back(acc > 0.0);
  }
  return bits;
}

std::size_t GfskDemodulator::estimate_timing(std::span<const dsp::Complex> iq) const {
  const std::uint32_t sps = config_.samples_per_bit;
  if (iq.size() < sps * 16) return 0;

  std::size_t best_offset = 0;
  double best_metric = -1.0;
  for (std::size_t offset = 0; offset < sps; ++offset) {
    // Eye metric: sum of sqrt(|integrated frequency|) per dump. The
    // concavity matters — a misaligned grouping produces a few large dumps
    // (same-bit straddles) and many near-zero ones (opposite-bit
    // straddles), which a plain sum rewards; sqrt rewards every dump being
    // consistently non-zero, which only the aligned offset achieves.
    double metric = 0.0;
    std::size_t limit = std::min<std::size_t>(iq.size() - 1, sps * 64);
    double acc = 0.0;
    std::uint32_t in_bit = 0;
    for (std::size_t i = offset + 1; i < limit; ++i) {
      dsp::Complex d = iq[i] * std::conj(iq[i - 1]);
      acc += std::arg(d);
      if (++in_bit == sps) {
        metric += std::sqrt(std::abs(acc));
        acc = 0.0;
        in_bit = 0;
      }
    }
    if (metric > best_metric) {
      best_metric = metric;
      best_offset = offset;
    }
  }
  return best_offset;
}

double aligned_ber(const std::vector<bool>& reference,
                   const std::vector<bool>& rx, int max_shift) {
  if (reference.empty()) return 0.0;
  double best = 1.0;
  for (int shift = -max_shift; shift <= max_shift; ++shift) {
    std::size_t errors = 0;
    std::size_t compared = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      long j = static_cast<long>(i) + shift;
      if (j < 0 || j >= static_cast<long>(rx.size())) continue;
      ++compared;
      if (reference[i] != rx[static_cast<std::size_t>(j)]) ++errors;
    }
    if (compared * 10 < reference.size() * 9) continue;  // < 90% coverage
    best = std::min(
        best, static_cast<double>(errors) / static_cast<double>(compared));
  }
  return best;
}

}  // namespace tinysdr::ble
