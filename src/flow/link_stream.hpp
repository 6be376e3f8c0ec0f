// Continuous-waveform LinkSimulator mode: the trial engine rebuilt as a
// streaming flowgraph.
//
// LinkSimulator::run_point() processes trials as isolated vectors — fine
// for PER curves, wrong shape for a testbed that streams frames
// back-to-back through a live channel. StreamingLink runs the same
// experiment as one continuous sample stream:
//
//   FrameStreamSource -> AwgnStreamBlock -> FrameSlicerSink
//
// The source runs LinkSimulator::transmit() frame after frame (pad +
// waveform + pad with the interferers mixed in and the TX impairment stage
// applied, then an inter-frame gap of silence) and publishes a
// FrameSchedule entry per frame; the channel block looks the schedule up
// by absolute stream position (ReadView::stream_pos) to know which trial's
// RNG drives each sample; the slicer reassembles each frame region and
// hands it to LinkSimulator::receive() (RX impairment stage + demod).
//
// Determinism contract: the transmit side, the channel and the receive
// side come from the held LinkSimulator off the same (point, trial) seeds,
// and every float lands in the same accumulation order, so the aggregated
// PointResult is byte-identical to LinkSimulator::run_point() for the same
// plan and point — pinned by tests, and equally true for run() and
// run_threaded().
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "channel/noise.hpp"
#include "flow/blocks.hpp"
#include "flow/graph.hpp"
#include "phy/link_sim.hpp"
#include "phy/phy.hpp"

namespace tinysdr::flow {

/// Continuous-mode configuration: the familiar TrialPlan (trials become
/// back-to-back frames) plus the streaming-only knobs.
struct StreamPlan {
  phy::TrialPlan trial;
  /// Silence between consecutive frame regions.
  std::size_t gap_samples = 0;
  /// Capacity of every ring in the streaming graph.
  std::size_t ring_capacity = kDefaultRingCapacity;
};

/// One frame's region in the stream: where it sits, what was sent, and
/// the seed of the randomness that shapes it. Immutable once published.
struct FrameEntry {
  std::uint64_t start = 0;   ///< absolute stream position of the region
  std::size_t length = 0;    ///< pad + waveform + pad
  std::uint64_t trial_seed = 0;
  std::vector<std::uint8_t> payload;
};

/// Position-ordered frame metadata shared by the source and the downstream
/// channel/slicer blocks. The source publishes an entry before committing
/// any of the region's samples, so by the time a reader's ReadView covers
/// a position, its entry is visible. Each reader walks the schedule with
/// its own cursor, and an entry is retired once both readers have passed
/// it, so the schedule holds the frames in flight between the source and
/// the slicer, not the whole stream.
class FrameSchedule {
 public:
  enum class Reader : std::uint8_t { kChannel, kSlicer };

  void push(FrameEntry entry);
  /// Entry number `cursor` (counting every entry ever pushed), or nullptr
  /// if not published yet. The pointer stays valid until both readers have
  /// passed the entry.
  [[nodiscard]] const FrameEntry* at(std::size_t cursor) const;
  /// `reader` is done with every entry before `cursor`.
  void pass(Reader reader, std::size_t cursor);
  /// Most entries held at once.
  [[nodiscard]] std::size_t peak_live() const;

 private:
  mutable std::mutex mu_;
  std::deque<FrameEntry> entries_;
  std::size_t retired_ = 0;  ///< entries dropped from the front
  std::array<std::size_t, 2> passed_{};
  std::size_t peak_live_ = 0;
};

/// Source: runs the simulator's transmit side for each of the plan's
/// trials and streams the regions back to back, separated by gaps,
/// publishing a FrameEntry per region.
class FrameStreamSource : public Block {
 public:
  FrameStreamSource(const phy::LinkSimulator& sim, const StreamPlan& plan,
                    const phy::SweepPoint& point, FrameSchedule* schedule);

  WorkResult work(const ReadView& in, WriteView& out) override;
  [[nodiscard]] bool finished() const override;

 private:
  void stage_frame(std::uint64_t start);

  const phy::LinkSimulator* sim_;
  const StreamPlan* plan_;
  phy::SweepPoint point_;
  FrameSchedule* schedule_;
  std::uint64_t point_seed_ = 0;

  std::size_t frame_idx_ = 0;
  phy::TrialBuffers buf_;      ///< current region in buf_.wave
  std::size_t region_pos_ = 0;
  std::size_t gap_left_ = 0;
  bool in_gap_ = false;
};

/// AWGN channel as a stream block: each frame region gets the simulator's
/// AwgnChannel for the entry's trial seed, gaps stay noiseless — exactly
/// what the per-trial engine does.
class AwgnStreamBlock : public Block {
 public:
  AwgnStreamBlock(FrameSchedule* schedule, const phy::LinkSimulator& sim,
                  Dbm rssi);

  WorkResult work(const ReadView& in, WriteView& out) override;

 private:
  FrameSchedule* schedule_;
  const phy::LinkSimulator* sim_;
  double snr_db_ = 0.0;
  std::size_t cursor_ = 0;
  std::optional<channel::AwgnChannel> channel_;  ///< current region's RNG
};

/// Sink: reassembles each frame region from the stream into its own
/// buffer, runs the simulator's receive side on it against the entry's
/// payload and trial seed, and aggregates the PointResult.
class FrameSlicerSink : public Block {
 public:
  FrameSlicerSink(const phy::LinkSimulator& sim, FrameSchedule* schedule)
      : Block("frame_slicer"), sim_(&sim), schedule_(schedule) {}

  WorkResult work(const ReadView& in, WriteView& out) override;

  [[nodiscard]] const phy::PointResult& result() const { return result_; }
  /// Total length of the regions sliced so far.
  [[nodiscard]] std::uint64_t samples_sliced() const {
    return samples_sliced_;
  }

 private:
  const phy::LinkSimulator* sim_;
  FrameSchedule* schedule_;
  std::size_t cursor_ = 0;
  dsp::Samples region_;
  phy::PointResult result_;
  std::uint64_t samples_sliced_ = 0;
};

/// What a continuous run produced: the aggregated link stats (byte-equal
/// to LinkSimulator::run_point) plus how the graph run ended.
struct StreamResult {
  phy::PointResult point;
  RunReport report;
  /// Most frame entries the schedule held at once.
  std::size_t frames_live_peak = 0;
};

/// The streaming trial engine: a LinkSimulator whose trials run as one
/// stream. Borrows the TX/RX and any attached interferers; they must
/// outlive it and be safe for concurrent const use.
class StreamingLink {
 public:
  StreamingLink(const phy::PhyTx& tx, const phy::PhyRx& rx, StreamPlan plan);

  /// LinkSimulator::add_interferer on the held simulator.
  void add_interferer(const phy::Interferer& source,
                      std::optional<Dbm> power = std::nullopt) {
    sim_.add_interferer(source, power);
  }

  /// LinkSimulator::add_impairment on the held simulator: transmit() and
  /// receive() apply the chain, so run() stays byte-identical to
  /// run_point() with the same chain.
  void add_impairment(const impair::Impairment& block, impair::Stage stage) {
    sim_.add_impairment(block, stage);
  }

  [[nodiscard]] const StreamPlan& plan() const { return plan_; }

  /// Stream every trial through a freshly built flowgraph. `threaded`
  /// selects run_threaded(); the result is byte-identical either way.
  [[nodiscard]] StreamResult run(const phy::SweepPoint& point,
                                 bool threaded = false) const;

 private:
  StreamPlan plan_;
  phy::LinkSimulator sim_;
};

}  // namespace tinysdr::flow
