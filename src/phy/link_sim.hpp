// LinkSimulator: the one trial engine behind every PER/BER/SER curve.
//
// One seeded pipeline — transmit() (random or fixed payload -> PhyTx
// waveform -> superposition of any attached interferers/jammers -> TX
// impairment stage) -> channel() (AwgnChannel at the sweep RSSI) ->
// receive() (RX impairment stage -> PhyRx -> FrameResult) — aggregated per
// sweep point. The figure benches (Fig. 10/11/12/15a/15b), the adversary
// jammer sweeps and the testbed multi-PHY campaigns all run on it instead
// of hand-rolling their own loops. flow::StreamingLink streams the same
// trials through the same three calls, so the two engines share one
// transmit side, one receive side and one set of RNG streams.
//
// Determinism contract (PR 3's rules): one base seed roots a sweep; a
// point's seed is a pure function of (base, rssi value) — independent of
// the sweep grid, so adding or reordering points never changes another
// point's trials — and each trial's RNGs derive from (point seed, trial
// index) via exec::stream_seed. Points shard across exec::parallel_for
// with per-point metrics shards merged in point order, so results and
// telemetry are byte-identical for any --threads value.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "channel/noise.hpp"
#include "exec/policy.hpp"
#include "impair/impair.hpp"
#include "phy/phy.hpp"

namespace tinysdr::phy {

/// A concurrent in-band emitter superposed onto the signal before the
/// AWGN channel: a second PHY, a jammer, any RF attacker model.
///
/// emit() appends the emitter's waveform to `out` (unit power where
/// active; the simulator scales it to the slot's configured receive
/// power). The clean, padded victim signal is passed in so reactive
/// models can key off its energy — a shorter (or empty) emission simply
/// stops superposing early. Implementations must be safe for concurrent
/// const use; all per-trial randomness comes from `rng`, which the
/// simulator seeds per (point, trial, slot), keeping sweeps
/// byte-identical at any thread count.
class Interferer {
 public:
  virtual ~Interferer() = default;
  virtual void emit(std::span<const dsp::Complex> signal, dsp::Samples& out,
                    Rng& rng) const = 0;
};

/// The classic Fig. 15 interferer: a second PHY transmitting a random
/// payload drawn from the trial's interferer stream. Ignores the victim
/// signal (quasi-orthogonal concurrent transmitter, not an attacker).
class PhyTxInterferer final : public Interferer {
 public:
  /// Borrows the TX; payload size is clamped to its max_payload().
  PhyTxInterferer(const PhyTx& tx, std::size_t payload_bytes)
      : tx_(&tx), payload_bytes_(payload_bytes) {}

  void emit(std::span<const dsp::Complex> signal, dsp::Samples& out,
            Rng& rng) const override;

 private:
  const PhyTx* tx_;
  std::size_t payload_bytes_;
};

/// Per-sweep configuration of the trial loop.
struct TrialPlan {
  std::size_t trials = 50;
  /// Random-payload size per trial (clamped to the TX's max_payload()).
  std::size_t payload_bytes = 16;
  /// Transmit this exact payload every trial instead of random bytes
  /// (Fig. 10's fixed 3-byte payload, Fig. 12's fixed beacon).
  std::optional<std::vector<std::uint8_t>> fixed_payload;
  /// Zero samples padded before and after the waveform so synchronising
  /// receivers hunt for the packet the way they would on air.
  std::size_t pad_samples = 0;
  /// Receiver noise figure; defaults to the generic front end — benches
  /// pass the per-PHY calibrated value from the phy:: config defaults.
  double noise_figure_db = channel::kDefaultNoiseFigureDb;
  /// Root of the sweep's seed derivation.
  std::uint64_t base_seed = 1;
};

/// One sweep point: the signal RSSI, plus the interferer's RSSI when the
/// simulator has an interferer attached (Fig. 15's second transmitter).
struct SweepPoint {
  Dbm rssi{0.0};
  std::optional<Dbm> interferer_rssi;
};

/// Aggregated trial outcomes at one point.
struct PointResult {
  double rssi_dbm = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t bits = 0;
  std::uint64_t bit_errors = 0;
  std::uint64_t symbols = 0;
  std::uint64_t symbol_errors = 0;

  [[nodiscard]] double per() const {
    return frames == 0 ? 0.0
                       : static_cast<double>(frame_errors) /
                             static_cast<double>(frames);
  }
  [[nodiscard]] double ber() const {
    return bits == 0 ? 0.0
                     : static_cast<double>(bit_errors) /
                           static_cast<double>(bits);
  }
  [[nodiscard]] double ser() const {
    return symbols == 0 ? 0.0
                        : static_cast<double>(symbol_errors) /
                              static_cast<double>(symbols);
  }

  /// Accumulate one trial's outcome.
  void add(const FrameResult& r) {
    frames += 1;
    frame_errors += r.frame_ok ? 0 : 1;
    bits += r.bits;
    bit_errors += r.bit_errors;
    symbols += r.symbols;
    symbol_errors += r.symbol_errors;
  }

  [[nodiscard]] bool operator==(const PointResult&) const = default;
};

/// Caller-owned buffers of one trial's transmit side, reused across
/// trials so the steady state allocates nothing.
struct TrialBuffers {
  std::vector<std::uint8_t> payload;
  dsp::Samples wave;  ///< padded waveform, interferers mixed, TX stage
  std::vector<dsp::Samples> emissions;  ///< one per interferer slot
};

class LinkSimulator {
 public:
  /// Borrows the TX/RX (and any attached interferers); they must outlive
  /// the simulator and be safe for concurrent const use (all adapters are).
  LinkSimulator(const PhyTx& tx, const PhyRx& rx, TrialPlan plan);

  /// Attach any interferer/attacker model (a concurrent PHY is a
  /// PhyTxInterferer). `power` fixes its received power; nullopt means
  /// the sweep point's interferer_rssi drives it (and the slot stays
  /// silent at points without one). Slots superpose in attachment order;
  /// each gets its own RNG stream per trial.
  void add_interferer(const Interferer& source,
                      std::optional<Dbm> power = std::nullopt);

  [[nodiscard]] std::size_t interferer_count() const {
    return interferers_.size();
  }

  /// Append an impairment block to the ordered chain (borrowed; must
  /// outlive the simulator). TX-stage slots distort the combined waveform
  /// after the interferer mix and before the AWGN channel; RX-stage slots
  /// land on the noisy capture before demodulation. transmit() applies the
  /// TX stage and receive() the RX stage. Slot k draws from RNG stream
  /// (trial seed, kImpairStreamBase + k) — k the slot's index in the full
  /// chain — so results are independent of the sweep grid and thread
  /// count. An empty chain leaves every existing sweep byte-identical.
  void add_impairment(const impair::Impairment& block, impair::Stage stage);

  [[nodiscard]] const impair::Chain& impairments() const {
    return impairments_;
  }

  [[nodiscard]] const TrialPlan& plan() const { return plan_; }
  [[nodiscard]] const PhyTx& tx() const { return *tx_; }
  [[nodiscard]] const PhyRx& rx() const { return *rx_; }

  /// PCG stream selectors for the independent randomness a trial consumes.
  /// Distinct streams of one trial seed, so adding a consumer never
  /// perturbs the others. The first interferer slot keeps the historical
  /// kInterfererStream; further slots get kExtraInterfererBase + k, clear
  /// of any selector already in use.
  static constexpr std::uint64_t kPayloadStream = 1;
  static constexpr std::uint64_t kInterfererStream = 2;
  static constexpr std::uint64_t kChannelStream = 3;
  static constexpr std::uint64_t kExtraInterfererBase = 16;
  /// Impairment chain slot k draws stream kImpairStreamBase + k; the base
  /// sits clear of the interferer block (kExtraInterfererBase + k).
  static constexpr std::uint64_t kImpairStreamBase = 64;

  /// Seed for a point: pure in (base, rssi value), independent of where —
  /// or whether — the point sits in any particular sweep grid.
  [[nodiscard]] static std::uint64_t point_seed(std::uint64_t base,
                                                double rssi_dbm);

  /// A trial's transmit side: payload -> padded waveform -> interferer
  /// mix -> TX impairment stage, into `buf.wave`. Every active slot emits
  /// from the clean padded waveform into `buf.emissions[k]` before any
  /// emission is mixed in, so reactive models key off the victim alone;
  /// the emissions are then added in slot order.
  void transmit(const SweepPoint& point, std::uint64_t trial_seed,
                TrialBuffers& buf) const;

  /// A trial's receive side: the RX impairment stage in place on
  /// `capture` (one whole trial region, pads included), then the PhyRx
  /// scored against the transmitted `payload`.
  [[nodiscard]] FrameResult receive(std::span<dsp::Complex> capture,
                                    std::span<const std::uint8_t> payload,
                                    std::uint64_t trial_seed) const;

  /// The trial's AWGN channel: the plan's noise bandwidth and figure,
  /// drawing from (trial seed, kChannelStream).
  [[nodiscard]] channel::AwgnChannel channel(std::uint64_t trial_seed) const;

  /// Add impair.<stage>.<block>.samples once per chain slot, in chain
  /// order, to the thread's metrics registry (if any): `samples` is the
  /// total length of the trial regions run over a point (every slot of
  /// either stage sees each whole region).
  void count_impaired(std::uint64_t samples) const;

  /// Run the full trial loop at one point.
  [[nodiscard]] PointResult run_point(const SweepPoint& point) const;

  /// Run every point, sharded across the exec worker pool. Results and
  /// merged metrics are byte-identical regardless of thread count.
  [[nodiscard]] std::vector<PointResult> sweep(
      std::span<const SweepPoint> points,
      const exec::ExecPolicy& policy = {}) const;

  /// Like sweep(), but surfaces how the region ended: the policy's
  /// cancellation token or deadline can stop the sweep early, and the
  /// returned RunStatus says so plus how many points completed. `results`
  /// is resized to points.size(); a point that never ran is left
  /// value-initialised (frames == 0 — a well-formed "no trials" result).
  /// Metric shards of completed points are still merged in point-index
  /// order, so partial telemetry is deterministic and no shard is leaked
  /// or double-counted.
  [[nodiscard]] exec::RunStatus sweep(std::span<const SweepPoint> points,
                                      std::vector<PointResult>& results,
                                      const exec::ExecPolicy& policy = {}) const;

  /// Convenience: a plain RSSI grid with no interferer sweep.
  [[nodiscard]] std::vector<PointResult> sweep_rssi(
      std::span<const double> rssi_dbm,
      const exec::ExecPolicy& policy = {}) const;

 private:
  struct InterfererSlot {
    const Interferer* source;
    std::optional<Dbm> power;  ///< nullopt: the point's interferer_rssi

    [[nodiscard]] std::optional<Dbm> power_at(const SweepPoint& p) const {
      return power ? power : p.interferer_rssi;
    }
  };

  const PhyTx* tx_;
  const PhyRx* rx_;
  TrialPlan plan_;
  std::vector<InterfererSlot> interferers_;
  impair::Chain impairments_;
};

}  // namespace tinysdr::phy
