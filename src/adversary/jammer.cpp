#include "adversary/jammer.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>

#include "obs/metrics.hpp"

namespace tinysdr::adversary {

namespace {

// Unit-power complex white noise: each component at sigma = 1/sqrt(2).
dsp::Complex noise_sample(Rng& rng) {
  constexpr double kInvSqrt2 = 0.7071067811865476;
  return {static_cast<float>(rng.next_gaussian() * kInvSqrt2),
          static_cast<float>(rng.next_gaussian() * kInvSqrt2)};
}

void record_jam(std::size_t samples) {
  if (samples == 0) return;
  if (auto* m = obs::metrics())
    m->counter("adversary.jam_samples").add(static_cast<double>(samples));
}

}  // namespace

void ReactiveJammer::emit(std::span<const dsp::Complex> signal,
                          dsp::Samples& out, Rng& rng) const {
  const std::size_t window = std::max<std::size_t>(config_.detect_window, 1);
  // Find the first detection window whose mean energy crosses threshold.
  std::size_t detect_at = signal.size();
  double energy = 0.0;
  for (std::size_t n = 0; n < signal.size(); ++n) {
    energy += std::norm(signal[n]);
    if (n >= window) energy -= std::norm(signal[n - window]);
    if (n + 1 >= window &&
        energy / static_cast<double>(window) >= config_.detect_threshold) {
      detect_at = n + 1;
      break;
    }
  }
  if (detect_at >= signal.size()) return;  // never triggered: stay silent

  std::size_t start =
      std::min(detect_at + config_.reaction_latency, signal.size());
  std::size_t stop = config_.burst_samples == 0
                         ? signal.size()
                         : std::min(start + config_.burst_samples,
                                    signal.size());
  if (start >= stop) return;

  out.assign(start, dsp::Complex{0.0f, 0.0f});
  for (std::size_t n = start; n < stop; ++n) out.push_back(noise_sample(rng));

  if (auto* m = obs::metrics()) m->counter("adversary.reactive_triggers").add();
  record_jam(stop - start);
}

void SweepJammer::emit(std::span<const dsp::Complex> signal,
                       dsp::Samples& out, Rng& rng) const {
  if (signal.empty()) return;
  const std::size_t period = std::max<std::size_t>(config_.period_samples, 1);
  const std::size_t offset = rng.next_below(static_cast<std::uint32_t>(
      std::min<std::size_t>(period, 0xFFFFFFFFu)));
  double phase = 0.0;
  out.reserve(signal.size());
  for (std::size_t n = 0; n < signal.size(); ++n) {
    double frac = static_cast<double>((n + offset) % period) /
                  static_cast<double>(period);
    double freq = config_.f_lo + (config_.f_hi - config_.f_lo) * frac;
    phase += 2.0 * std::numbers::pi * freq;
    out.emplace_back(static_cast<float>(std::cos(phase)),
                     static_cast<float>(std::sin(phase)));
  }
  record_jam(out.size());
}

void PulsedJammer::emit(std::span<const dsp::Complex> signal,
                        dsp::Samples& out, Rng& rng) const {
  if (signal.empty()) return;
  const std::size_t period = std::max<std::size_t>(config_.period_samples, 1);
  const std::size_t on_samples = static_cast<std::size_t>(
      static_cast<double>(period) * std::clamp(config_.duty, 0.0, 1.0));
  if (on_samples == 0) return;
  const std::size_t offset = rng.next_below(static_cast<std::uint32_t>(
      std::min<std::size_t>(period, 0xFFFFFFFFu)));
  std::size_t jammed = 0;
  out.reserve(signal.size());
  for (std::size_t n = 0; n < signal.size(); ++n) {
    if ((n + offset) % period < on_samples) {
      out.push_back(noise_sample(rng));
      ++jammed;
    } else {
      out.emplace_back(0.0f, 0.0f);
    }
  }
  record_jam(jammed);
}

}  // namespace tinysdr::adversary
