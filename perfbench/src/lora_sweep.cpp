// lora_sweep: the paper's headline experiment (Figs. 10/11). One batch is a
// LinkSimulator::sweep of LoRa packet PER at SF8/BW125 and then at
// SF12/BW125 (16-byte payloads), each over its own waterfall grid, sharded
// over the worker pool. No interferer, flowgraph, cache or OTA code runs.
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "exec/policy.hpp"
#include "phy/lora_phy.hpp"
#include "phy/registry.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace tp = tinysdr::phy;
using tinysdr::Dbm;
using tinysdr::Hertz;

/// Per SF: trials per point and the grid (points, top RSSI, step in dB).
struct SfSpec {
  int sf;
  std::size_t trials;
  std::size_t points;
  double top_dbm;
  double step_db;
};
constexpr SfSpec kSf8{8, 12, 8, -114.0, 2.0};
constexpr SfSpec kSf12{12, 2, 4, -126.0, 3.0};
constexpr std::size_t kPayloadBytes = 16;

struct SfSweep {
  SfSpec spec;
  tp::TrialPlan plan;
  std::vector<tp::SweepPoint> grid;
  std::unique_ptr<tp::PhyTx> tx;
  std::unique_ptr<tp::PhyRx> rx;
  std::unique_ptr<tp::LinkSimulator> sim;
  std::vector<tp::PointResult> reference;
};

void build(SfSweep& s, bool decorated) {
  tp::LoraPhyConfig cfg{.params = {s.spec.sf, Hertz::from_kilohertz(125.0)}};
  std::unique_ptr<tp::PhyTx> tx = std::make_unique<tp::LoraPacketTx>(cfg);
  std::unique_ptr<tp::PhyRx> rx = std::make_unique<tp::LoraPacketRx>(cfg);
  if (decorated) {
    const std::string key = phy_key(tp::Protocol::kLora, s.spec.sf);
    tx = std::make_unique<TimedTx>(std::move(tx), key);
    rx = std::make_unique<TimedRx>(std::move(rx), key);
  }
  s.sim = std::make_unique<tp::LinkSimulator>(*tx, *rx, s.plan);
  s.tx = std::move(tx);
  s.rx = std::move(rx);
}

class LoraSweep final : public Workload {
 public:
  LoraSweep(const Options& opt, bool decorated)
      : policy_(tinysdr::exec::ExecPolicy::with_threads(opt.threads)),
        decorated_(decorated),
        sweep_span_(SpanLog::intern("link.sweep")) {
    // Inputs: each SF's sweep seed. The grids are fixed, so a run's cost
    // depends on the seed only through the trials' random draws.
    tinysdr::Rng gen{opt.seed, 0x10a};
    for (SfSweep* s : {&sf8_, &sf12_}) {
      s->spec = s == &sf8_ ? kSf8 : kSf12;
      const tp::RegisteredPhy& lora =
          tp::Registry::builtin().at(tp::Protocol::kLora);
      s->plan.trials = s->spec.trials;
      s->plan.payload_bytes = kPayloadBytes;
      s->plan.pad_samples = lora.pad_samples;
      s->plan.noise_figure_db = lora.system_noise_figure_db;
      s->plan.base_seed = (static_cast<std::uint64_t>(gen.next_u32()) << 32) |
                          gen.next_u32();
      for (std::size_t i = 0; i < s->spec.points; ++i)
        s->grid.push_back(
            {Dbm{s->spec.top_dbm - s->spec.step_db * static_cast<double>(i)},
             std::nullopt});
    }
  }

  const char* item_name() const override { return "trials"; }

  void setup(Tally& tally) override {
    for (SfSweep* s : {&sf8_, &sf12_}) {
      build(*s, decorated_);
      s->reference.clear();
      tally.check(sweep(*s, s->reference),
                  "lora_sweep: warm-up sweep complete");
    }
  }

  std::size_t run_batch(Tally& tally) override {
    std::size_t trials = 0;
    for (SfSweep* s : {&sf8_, &sf12_}) {
      std::vector<tp::PointResult> results;
      const bool complete = sweep(*s, results);
      tally.check(complete && results == s->reference,
                  "lora_sweep: sweep equals the reference");
      trials += s->grid.size() * s->plan.trials;
    }
    return trials;
  }

  void check(Tally& tally) override {
    // One point re-run serially equals its sharded result, and the
    // opposite decoration gives identical PointResults.
    for (SfSweep* s : {&sf8_, &sf12_}) {
      const std::size_t i = s->grid.size() / 2;
      tally.check(s->sim->run_point(s->grid[i]) == s->reference[i],
                  "lora_sweep: serial point equals sharded point");
      SfSweep other{s->spec, s->plan, {}, {}, {}, {}, {}};
      build(other, !decorated_);
      tally.check(other.sim->run_point(s->grid[i]) == s->reference[i],
                  "lora_sweep: decorated point equals undecorated point");
    }
  }

  std::string digest() const override {
    Digest d;
    for (const SfSweep* s : {&sf8_, &sf12_})
      for (const auto& p : s->reference) d.point(p);
    return d.hex();
  }

 private:
  bool sweep(const SfSweep& s, std::vector<tp::PointResult>& out) const {
    ScopedSpan span{sweep_span_};
    return s.sim->sweep(s.grid, out, policy_).complete();
  }

  tinysdr::exec::ExecPolicy policy_;
  bool decorated_;
  std::uint32_t sweep_span_;
  SfSweep sf8_, sf12_;
};

}  // namespace

std::unique_ptr<Workload> make_lora_sweep(const Options& opt, bool decorated) {
  return std::make_unique<LoraSweep>(opt, decorated);
}

}  // namespace perfbench
