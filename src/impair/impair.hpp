// Hardware-impairment pipeline: the analog front-end defects the AWGN-only
// channel model leaves out (ROADMAP item 4).
//
// The AT86RF215 + LMS7002M chain the paper builds on — like every direct-
// conversion front end — suffers IQ gain/phase imbalance, LO leakage (DC
// offset), crystal-driven CFO with temperature drift, LO phase noise, and
// PA compression. Each defect is modelled as a composable, seeded block
// over a span of baseband samples. phy::LinkSimulator holds the ordered
// impairment chain: transmit() applies the TX stage per trial between the
// interferer mix and the AWGN channel, receive() the RX stage after it, and
// flow::StreamingLink runs trials through those same two calls. The radio
// models carry no impairment code of their own: a caller that wants a
// defective front end (the AT86RF215 impairment budget, the CAD tolerance
// tests) applies these blocks to the waveform before At86rf215::receive.
//
// Determinism contract: apply() must be *chunk-independent* — processing
// [0, N) in one call is byte-identical to processing any consecutive
// sub-ranges with the same ImpairState carried across calls. All
// randomness comes from the state's Rng (seeded per (trial, chain slot) by
// LinkSimulator via exec::stream_seed), all positional terms from the
// state's running sample counter. A block at zero magnitude is a
// byte-identical passthrough that consumes no randomness, so an "off"
// impairment can never perturb a calibrated curve.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "dsp/types.hpp"

namespace tinysdr::impair {

/// Where in the signal path a chain slot sits: TX defects distort the
/// transmitted waveform before the channel adds noise; RX defects (LO
/// phase noise, receive-side CFO) land on the noisy capture.
enum class Stage : std::uint8_t { kTx = 0, kRx };

[[nodiscard]] std::string_view stage_name(Stage stage);

/// Per-(trial, slot) processing state carried across chunks: the slot's
/// seeded RNG stream, the running sample position relative to the start of
/// the region, and an accumulated phase for random-walk models.
struct ImpairState {
  Rng rng{0, 0};
  std::uint64_t pos = 0;
  double phase = 0.0;
};

/// One impairment block: a pure in-place span transform under the
/// chunk-independence contract above. Implementations must be safe for
/// concurrent const use (all per-call state lives in ImpairState).
class Impairment {
 public:
  virtual ~Impairment() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  virtual void apply(std::span<dsp::Complex> x, ImpairState& state) const = 0;
};

/// IQ gain/phase imbalance (direct-conversion mixer mismatch, the defect
/// litex_m2sdr's iq_correction gateware trims): the Q rail is scaled by
/// g = 10^(gain_db/20) and skewed by phase_deg relative to I:
///   I' = I,   Q' = g*(sin(phi)*I + cos(phi)*Q).
/// Memoryless; zero gain and phase is a passthrough.
class IqImbalance final : public Impairment {
 public:
  IqImbalance(double gain_db, double phase_deg);

  [[nodiscard]] std::string_view name() const override {
    return "iq_imbalance";
  }
  void apply(std::span<dsp::Complex> x, ImpairState& state) const override;

  [[nodiscard]] double gain_db() const { return gain_db_; }
  [[nodiscard]] double phase_deg() const { return phase_deg_; }

 private:
  double gain_db_;
  double phase_deg_;
  float sin_term_;   ///< g*sin(phi)
  float cos_term_;   ///< g*cos(phi)
  bool enabled_;
};

/// LO leakage / ADC bias: a constant complex offset added to every sample
/// (the defect litex_m2sdr's dc_filter gateware notches out). Memoryless;
/// a zero offset is a passthrough.
class DcOffset final : public Impairment {
 public:
  explicit DcOffset(dsp::Complex offset);

  [[nodiscard]] std::string_view name() const override { return "dc_offset"; }
  void apply(std::span<dsp::Complex> x, ImpairState& state) const override;

  [[nodiscard]] dsp::Complex offset() const { return offset_; }

 private:
  dsp::Complex offset_;
  bool enabled_;
};

/// Carrier frequency offset with linear drift (crystal tolerance plus
/// temperature ramp — the make-or-break defect for MCU-class LoRa
/// receivers per Xhonneux et al.): sample n is rotated by
///   phi(n) = 2*pi*(cfo*n + drift*n^2/2),
/// cfo in cycles/sample, drift in cycles/sample^2, n relative to the
/// region start. Pure in the state's position; zero cfo and drift is a
/// passthrough.
class CfoDrift final : public Impairment {
 public:
  explicit CfoDrift(double cfo_cycles_per_sample,
                    double drift_cycles_per_sample2 = 0.0);

  [[nodiscard]] std::string_view name() const override { return "cfo_drift"; }
  void apply(std::span<dsp::Complex> x, ImpairState& state) const override;

  [[nodiscard]] double cfo() const { return cfo_; }
  [[nodiscard]] double drift() const { return drift_; }

 private:
  double cfo_;
  double drift_;
  bool enabled_;
};

/// LO phase noise as a Wiener (random-walk) process: each sample's phase
/// accumulates a fresh N(0, sigma^2) step drawn from the slot's RNG
/// stream. The walk is carried in ImpairState::phase, so chunked and
/// whole-region application are byte-identical. Zero sigma is a
/// passthrough that draws nothing.
class PhaseNoise final : public Impairment {
 public:
  explicit PhaseNoise(double sigma_rad_per_sample);

  [[nodiscard]] std::string_view name() const override {
    return "phase_noise";
  }
  void apply(std::span<dsp::Complex> x, ImpairState& state) const override;

  [[nodiscard]] double sigma() const { return sigma_; }

 private:
  double sigma_;
  bool enabled_;
};

/// PA compression as a Rapp soft limiter: magnitudes are squeezed through
///   |y| = |x| / (1 + (|x|/A)^(2p))^(1/(2p)),
/// phase preserved — the knee litex_m2sdr's crest-factor-reduction (cfr)
/// gateware exists to stay under. A is the saturation level relative to
/// the waveform's unit RMS, p the knee smoothness. clip_level <= 0 means
/// "no compression" and is a passthrough.
class PaClip final : public Impairment {
 public:
  explicit PaClip(double clip_level, double smoothness = 2.0);

  [[nodiscard]] std::string_view name() const override { return "pa_clip"; }
  void apply(std::span<dsp::Complex> x, ImpairState& state) const override;

  [[nodiscard]] double clip_level() const { return clip_level_; }
  [[nodiscard]] double smoothness() const { return smoothness_; }

 private:
  double clip_level_;
  double smoothness_;
  bool enabled_;
};

/// One slot of an ordered impairment chain (borrowed block + stage).
struct ChainSlot {
  const Impairment* impairment = nullptr;
  Stage stage = Stage::kTx;
};

/// An ordered chain. Slot k of a trial draws from RNG stream
/// (trial_seed, stream_base + k) — k is the slot's index in the *full*
/// chain regardless of stage, so batch and streaming engines agree.
using Chain = std::vector<ChainSlot>;

/// Apply every `stage` slot of `chain` in order to `x`, each with a fresh
/// state seeded Rng{trial_seed, stream_base + slot_index}. The trial
/// kernel's TX and RX stages.
void apply_stage(const Chain& chain, Stage stage, std::span<dsp::Complex> x,
                 std::uint64_t trial_seed, std::uint64_t stream_base);

}  // namespace tinysdr::impair
