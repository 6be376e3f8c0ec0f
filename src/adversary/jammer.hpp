// Seeded RF attacker models (ROADMAP item 5; attack shapes after the
// BLE/Zigbee SDR penetration-testing literature, arXiv:1902.08595).
//
// Three jammer archetypes, all phy::Interferer implementations pluggable
// into phy::LinkSimulator's interferer list:
//
//   ReactiveJammer — listens for the victim's preamble energy and keys up
//     after a reaction latency, the hardest jammer to dodge;
//   SweepJammer    — a chirped tone sweeping the band, hitting any victim
//     channel once per sweep period;
//   PulsedJammer   — duty-cycled wideband noise bursts, the classic
//     low-energy disruptor.
//
// Emitted waveforms are unit power where active; the simulator scales
// them to the attached slot's receive power. All per-trial randomness
// comes from the RNG the simulator hands emit() (seeded per point/trial/
// slot), so jammed sweeps stay byte-identical at any thread count. Jam
// activity is reported through the thread-local obs registry as
// adversary.jam_samples / adversary.reactive_triggers counters, merged
// deterministically with the per-point metric shards.
#pragma once

#include <cstddef>

#include "phy/link_sim.hpp"

namespace tinysdr::adversary {

/// Energy-detecting jammer: integrates |x|^2 over a sliding window of the
/// victim signal, and once the mean crosses the threshold (the preamble
/// ramping up), keys up `reaction_latency` samples later.
struct ReactiveJammerConfig {
  /// Mean |x|^2 over the window that counts as "signal present". The
  /// victim waveform is unit power where active, so 0.05 triggers on the
  /// first window that overlaps the preamble.
  double detect_threshold = 0.05;
  /// Samples of energy integration per detection window.
  std::size_t detect_window = 32;
  /// Samples between detection and RF-on (receiver turnaround).
  std::size_t reaction_latency = 64;
  /// Jam burst length in samples; 0 = jam to the end of the frame.
  std::size_t burst_samples = 0;
};

class ReactiveJammer final : public phy::Interferer {
 public:
  explicit ReactiveJammer(ReactiveJammerConfig config = {})
      : config_(config) {}

  [[nodiscard]] const ReactiveJammerConfig& config() const { return config_; }

  void emit(std::span<const dsp::Complex> signal, dsp::Samples& out,
            Rng& rng) const override;

 private:
  ReactiveJammerConfig config_;
};

/// Swept-tone jammer: a unit-amplitude chirp cycling linearly from f_lo
/// to f_hi (normalized cycles/sample) once per `period_samples`, with a
/// random per-trial phase in the sweep so victims at different offsets
/// all get hit.
struct SweepJammerConfig {
  double f_lo = -0.45;
  double f_hi = 0.45;
  std::size_t period_samples = 4096;
};

class SweepJammer final : public phy::Interferer {
 public:
  explicit SweepJammer(SweepJammerConfig config = {}) : config_(config) {}

  [[nodiscard]] const SweepJammerConfig& config() const { return config_; }

  void emit(std::span<const dsp::Complex> signal, dsp::Samples& out,
            Rng& rng) const override;

 private:
  SweepJammerConfig config_;
};

/// Duty-cycled noise jammer: wideband unit-power noise for
/// duty * period_samples out of every period, off otherwise. The burst
/// phase is drawn per trial so frames land at every alignment.
struct PulsedJammerConfig {
  std::size_t period_samples = 2048;
  double duty = 0.25;
};

class PulsedJammer final : public phy::Interferer {
 public:
  explicit PulsedJammer(PulsedJammerConfig config = {}) : config_(config) {}

  [[nodiscard]] const PulsedJammerConfig& config() const { return config_; }

  void emit(std::span<const dsp::Complex> signal, dsp::Samples& out,
            Rng& rng) const override;

 private:
  PulsedJammerConfig config_;
};

}  // namespace tinysdr::adversary
