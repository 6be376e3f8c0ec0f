// Reproduces Fig. 15b: concurrent LoRa with asymmetric power — the
// SF8/BW125 transmission is fixed near its sensitivity while the
// SF8/BW250 transmission's power sweeps. SER on the weak link is flat
// while noise dominates, then climbs once the quasi-orthogonal interferer
// dominates the noise (the paper's argument for power control).
#include "bench_common.hpp"
#include "bench_fig15_common.hpp"

using namespace tinysdr;

int main(int argc, char** argv) {
  bench::BenchRun run{argc, argv, "Fig. 15b", "paper Fig. 15b",
                      "Concurrent LoRa, interferer power sweep (BW125 fixed "
                      "near sensitivity)"};
  auto policy = bench::thread_policy(argc, argv);
  run.config_threads(policy);

  bench::Fig15Setup rig;

  // 2 trials x 125 payload bytes = 250 chirp symbols per sweep point. The
  // signal RSSI is fixed, so every point reuses the same symbols and noise
  // realization — a controlled sweep where only the interferer level moves.
  phy::TrialPlan plan = rig.plan();
  plan.base_seed = 77;

  // Paper: the BW125 signal is fixed at -123 dBm, near its sensitivity.
  const Dbm fixed_a{-123.0};
  std::vector<phy::SweepPoint> points;
  for (double interferer = -130.0; interferer <= -104.0; interferer += 2.0)
    points.push_back({fixed_a, Dbm{interferer}});

  phy::LinkSimulator sim{rig.tx125, rig.rx125, plan};
  const phy::PhyTxInterferer interferer{rig.tx250, plan.payload_bytes};
  sim.add_interferer(interferer);
  auto results = sim.sweep(points, policy);

  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < points.size(); ++i)
    rows.push_back(
        {points[i].interferer_rssi->value(), results[i].ser() * 100.0});
  run.series("ser_vs_interferer", "Interferer power (dBm)",
             {"SF8/BW125 SER (%)"}, rows, 2);

  std::cout
      << "\nShape (paper): flat noise-dominated region, ~3 dB degradation "
         "where interferer power crosses the noise power (around -116 dBm), "
         "then interferer-dominated growth — demonstrating the need for "
         "power control when IoT endpoints decode concurrent "
         "transmissions.\n";
  return 0;
}
