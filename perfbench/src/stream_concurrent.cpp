// stream_concurrent: Fig. 15a's concurrent LoRa reception as one
// continuous stream. One batch is flow::StreamingLink::run(threaded=true)
// of back-to-back SF8/BW125 frames with one concurrent SF8/BW250
// PhyTxInterferer, both sampled at 500 kHz. The only workload that runs
// the SPSC rings, the threaded scheduler, the interferer mix and the
// frame schedule.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "flow/link_stream.hpp"
#include "phy/lora_phy.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace tp = tinysdr::phy;
using tinysdr::Dbm;
using tinysdr::Hertz;

/// Frames per run. The frame schedule keeps every frame's clean region and
/// interferer wave until the run ends (~0.2 MB per frame), so this count
/// sets the run's memory: it keeps peak RSS under kRssCeilingMb.
constexpr std::size_t kFrames = 48;
constexpr double kRssCeilingMb = 64.0;
constexpr std::size_t kPayloadBytes = 16;
constexpr std::size_t kGapSamples = 256;

struct Link {
  std::unique_ptr<tp::PhyTx> tx;
  std::unique_ptr<tp::PhyRx> rx;
  std::unique_ptr<tp::PhyTx> interferer_tx;
  std::unique_ptr<tp::Interferer> interferer;
  std::unique_ptr<tinysdr::flow::StreamingLink> stream;
};

class StreamConcurrent final : public Workload {
 public:
  StreamConcurrent(const Options& opt, bool decorated)
      : decorated_(decorated), run_span_(SpanLog::intern("flow.run")) {
    tinysdr::Rng gen{opt.seed, 0x5e7};
    plan_.trial.trials = kFrames;
    plan_.trial.payload_bytes = kPayloadBytes;
    plan_.trial.noise_figure_db = tp::kLoraSystemNf;
    plan_.trial.base_seed =
        (static_cast<std::uint64_t>(gen.next_u32()) << 32) | gen.next_u32();
    plan_.gap_samples = kGapSamples;
    // Victim near the SF8 SER knee, the interferer 3 dB below it.
    point_ = {Dbm{-125.0}, Dbm{-128.0}};
  }

  const char* item_name() const override { return "frames"; }

  void setup(Tally& tally) override {
    link_ = build(decorated_);
    reference_ = run(link_, tally);
  }

  std::size_t run_batch(Tally& tally) override {
    tally.check(run(link_, tally) == reference_,
                "stream_concurrent: run equals the reference");
    return reference_.frames;
  }

  void check(Tally& tally) override {
    // The streaming engine must equal the batch engine for the same plan
    // and point, and the opposite decoration must not change the result.
    tp::LinkSimulator batch{*link_.tx, *link_.rx, plan_.trial};
    batch.add_interferer(*link_.interferer);
    tally.check(batch.run_point(point_) == reference_,
                "stream_concurrent: stream equals LinkSimulator::run_point");
    Link other = build(!decorated_);
    tally.check(run(other, tally) == reference_,
                "stream_concurrent: decorated run equals undecorated run");
    tally.check(peak_rss_mb() <= kRssCeilingMb,
                "stream_concurrent: peak RSS within the ceiling");
  }

  std::string digest() const override {
    Digest d;
    d.point(reference_);
    return d.hex();
  }

  void traced_extras(LayerValues& values) override {
    // Memory growth of one run: sample RSS while it streams, after handing
    // freed heap back to the OS so growth is not hidden by reuse.
    malloc_trim(0);
    const double before = rss_mb();
    std::atomic<bool> done{false};
    double peak = before;
    std::thread sampler{[&] {
      while (!done.load(std::memory_order_relaxed)) {
        peak = std::max(peak, rss_mb());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }};
    Tally ignored;
    const auto result = run(link_, ignored);
    done.store(true, std::memory_order_relaxed);
    sampler.join();
    values["flow.rss_mb_per_1k_frames"] =
        (peak - before) * 1000.0 / static_cast<double>(result.frames);
  }

 private:
  Link build(bool decorated) const {
    const Hertz fs = Hertz::from_kilohertz(500.0);
    tp::LoraPhyConfig victim{.params = {8, Hertz::from_kilohertz(125.0)},
                             .sample_rate = fs};
    tp::LoraPhyConfig other{.params = {8, Hertz::from_kilohertz(250.0)},
                            .sample_rate = fs};
    Link l;
    l.tx = std::make_unique<tp::LoraSymbolTx>(victim);
    l.rx = std::make_unique<tp::LoraSymbolRx>(victim);
    l.interferer_tx = std::make_unique<tp::LoraSymbolTx>(other);
    l.interferer = std::make_unique<tp::PhyTxInterferer>(*l.interferer_tx,
                                                         kPayloadBytes);
    if (decorated) {
      const std::string key = phy_key(tp::Protocol::kLora, 8);
      l.tx = std::make_unique<TimedTx>(std::move(l.tx), key);
      l.rx = std::make_unique<TimedRx>(std::move(l.rx), key);
      l.interferer = std::make_unique<TimedInterferer>(std::move(l.interferer));
    }
    l.stream =
        std::make_unique<tinysdr::flow::StreamingLink>(*l.tx, *l.rx, plan_);
    l.stream->add_interferer(*l.interferer);
    return l;
  }

  tp::PointResult run(const Link& l, Tally& tally) const {
    ScopedSpan span{run_span_};
    auto result = l.stream->run(point_, /*threaded=*/true);
    tally.check(result.report.state == tinysdr::flow::RunState::kDrained,
                "stream_concurrent: stream drained");
    return result.point;
  }

  bool decorated_;
  std::uint32_t run_span_;
  tinysdr::flow::StreamPlan plan_;
  tp::SweepPoint point_;
  Link link_;
  tp::PointResult reference_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_concurrent(const Options& opt,
                                                 bool decorated) {
  return std::make_unique<StreamConcurrent>(opt, decorated);
}

}  // namespace perfbench
