// Hardware-impairment ablation: for every reproduced PHY, PER at a pinned
// link margin under three front-ends — clean, impaired (CFO + IQ imbalance
// + DC offset at magnitudes a real low-cost radio exhibits), and impaired
// with the matching calibration chain (DC notch -> IQ correction ->
// preamble CFO correction) on the receiver.
//
// Every number here is deterministic (fixed seeds, fixed grids), so the
// scalars are gateable: the perf gate pins clean PER to zero, impaired PER
// high, corrected PER back at clean, and batch/stream byte-identity to 1.
#include <cmath>
#include <vector>

#include "adversary/jammer.hpp"
#include "bench_common.hpp"
#include "flow/link_stream.hpp"
#include "impair/impair.hpp"
#include "phy/calibrated_rx.hpp"
#include "phy/link_sim.hpp"
#include "phy/registry.hpp"

using namespace tinysdr;

namespace {

struct AblationPoint {
  const char* phy;
  double rssi_dbm;
  double cfo_cps;
  dsp::Complex dc;
  double iq_gain_db;
  double iq_phase_deg;
};

// Same pinned points the metamorphic suite proves: clean link error-free,
// impaired link broken, corrected link restored.
constexpr AblationPoint kPoints[] = {
    {"lora", -110.0, 0.0018, {1.0f, 0.5f}, 2.0, 10.0},
    {"ble", -85.0, 0.05, {0.5f, -0.3f}, 2.0, 10.0},
    {"zigbee", -88.0, 0.005, {0.3f, -0.2f}, 1.5, 8.0},
    {"sigfox", -120.0, 0.03, {0.5f, -0.3f}, 2.0, 10.0},
    {"nbiot", -110.0, 0.004, {0.3f, -0.2f}, 1.5, 8.0},
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun run{argc, argv, "Impairment ablation",
                      "hardware impairments",
                      "Per-PHY PER under clean / impaired / calibrated "
                      "front-ends, plus batch-vs-streaming chain identity"};
  run.config("trials", 20);
  run.config("payload_bytes", 12);

  std::vector<std::vector<double>> rows;
  bool all_zero_chain_identical = true;
  std::size_t idx = 0;
  for (const auto& pt : kPoints) {
    const auto* entry = phy::Registry::builtin().find_by_name(pt.phy);
    auto tx = entry->make_tx();
    auto rx = entry->make_rx();
    phy::TrialPlan plan;
    plan.trials = 20;
    plan.payload_bytes = 12;
    plan.pad_samples = entry->pad_samples;
    plan.noise_figure_db = entry->system_noise_figure_db;
    plan.base_seed = 0xCA1;
    const phy::SweepPoint point{Dbm{pt.rssi_dbm}, std::nullopt};

    phy::LinkSimulator clean{*tx, *rx, plan};
    const auto r_clean = clean.run_point(point);

    const impair::CfoDrift cfo{pt.cfo_cps};
    const impair::IqImbalance iq{pt.iq_gain_db, pt.iq_phase_deg};
    const impair::DcOffset dc{pt.dc};
    auto attach = [&](auto& sim) {
      sim.add_impairment(cfo, impair::Stage::kRx);
      sim.add_impairment(iq, impair::Stage::kRx);
      sim.add_impairment(dc, impair::Stage::kRx);
    };

    phy::LinkSimulator impaired{*tx, *rx, plan};
    attach(impaired);
    const auto r_impaired = impaired.run_point(point);

    auto cal_rx = phy::make_calibrated_rx(*entry);
    phy::LinkSimulator corrected{*tx, *cal_rx, plan};
    attach(corrected);
    const auto r_corrected = corrected.run_point(point);

    // Zero-magnitude chain must leave the engine untouched.
    const impair::CfoDrift z_cfo{0.0};
    const impair::IqImbalance z_iq{0.0, 0.0};
    const impair::DcOffset z_dc{{0.0f, 0.0f}};
    phy::LinkSimulator zeroed{*tx, *rx, plan};
    zeroed.add_impairment(z_cfo, impair::Stage::kRx);
    zeroed.add_impairment(z_iq, impair::Stage::kRx);
    zeroed.add_impairment(z_dc, impair::Stage::kRx);
    all_zero_chain_identical &= zeroed.run_point(point) == r_clean;

    rows.push_back({static_cast<double>(idx++), r_clean.per() * 100.0,
                    r_impaired.per() * 100.0, r_corrected.per() * 100.0});
    const std::string prefix = std::string("per_") + pt.phy;
    run.scalar(prefix + "_clean_pct", r_clean.per() * 100.0);
    run.scalar(prefix + "_impaired_pct", r_impaired.per() * 100.0);
    run.scalar(prefix + "_corrected_pct", r_corrected.per() * 100.0);
    run.scalar(std::string("cfo_bias_") + pt.phy,
               phy::default_calibration(*entry).cfo_bias);
  }
  run.series("ablation_per", "phy index (lora,ble,zigbee,sigfox,nbiot)",
             {"clean PER(%)", "impaired PER(%)", "corrected PER(%)"}, rows,
             2);

  // Batch/stream differential: the same full chain and the same two
  // interferer slots (a concurrent BLE transmitter and a reactive jammer)
  // through run_point() and the streaming flowgraph (gaps + odd ring),
  // under both schedulers, must agree bit for bit.
  bool batch_stream_identical = true;
  {
    const auto& entry = phy::Registry::builtin().at(phy::Protocol::kZigbee);
    auto tx = entry.make_tx();
    auto rx = entry.make_rx();
    auto ble_tx = phy::Registry::builtin().at(phy::Protocol::kBle).make_tx();
    phy::TrialPlan plan;
    plan.trials = 5;
    plan.payload_bytes = 8;
    plan.pad_samples = entry.pad_samples;
    plan.noise_figure_db = entry.system_noise_figure_db;
    plan.base_seed = 0xBEE;
    const phy::SweepPoint point{Dbm{-95.0}, Dbm{-99.0}};
    const phy::PhyTxInterferer concurrent{*ble_tx, plan.payload_bytes};
    const adversary::ReactiveJammer jammer{};
    const Dbm jam_power{-106.0};

    const impair::PaClip clip{0.9, 2.0};
    const impair::CfoDrift cfo{0.002, 1e-8};
    const impair::PhaseNoise pn{0.02};
    phy::LinkSimulator classic{*tx, *rx, plan};
    classic.add_interferer(concurrent);
    classic.add_interferer(jammer, jam_power);
    classic.add_impairment(clip, impair::Stage::kTx);
    classic.add_impairment(cfo, impair::Stage::kRx);
    classic.add_impairment(pn, impair::Stage::kRx);
    const auto expected = classic.run_point(point);

    flow::StreamingLink stream{*tx, *rx,
                               flow::StreamPlan{plan, /*gap_samples=*/57,
                                                /*ring_capacity=*/256}};
    stream.add_interferer(concurrent);
    stream.add_interferer(jammer, jam_power);
    stream.add_impairment(clip, impair::Stage::kTx);
    stream.add_impairment(cfo, impair::Stage::kRx);
    stream.add_impairment(pn, impair::Stage::kRx);
    for (bool threaded : {false, true}) {
      auto got = stream.run(point, threaded);
      batch_stream_identical &=
          got.report.drained() && got.point == expected;
    }
  }
  run.scalar("batch_stream_identical", batch_stream_identical ? 1.0 : 0.0);
  run.scalar("zero_chain_identical", all_zero_chain_identical ? 1.0 : 0.0);

  std::cout << "\nCalibration closes the gap at every pinned point; "
            << "batch vs streaming chain "
            << (batch_stream_identical ? "byte-identical."
                                       : "DIVERGED — determinism bug!")
            << "\n";
  return batch_stream_identical && all_zero_chain_identical ? 0 : 1;
}
