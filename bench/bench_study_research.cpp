// Research-opportunity studies (paper §7): quantifies each of the
// directions the conclusion sketches, using the platform models.
//   [1] rate adaptation over the campus deployment
//   [2] broadcast vs sequential OTA programming
//   [3] FPGA path vs the radio's built-in MR-FSK modem (power/resources)
//   [4] phase-based ranging accuracy from I/Q access
//   [5] backscatter reader operating region
#include "bench_common.hpp"
#include "core/backscatter.hpp"
#include "core/localization.hpp"
#include "lora/rate_adapt.hpp"
#include "ota/broadcast.hpp"
#include "power/platform_power.hpp"
#include "radio/builtin_modem.hpp"
#include "testbed/deployment.hpp"

using namespace tinysdr;

int main(int argc, char** argv) {
  bench::BenchRun run{argc, argv, "Research studies", "paper §7",
                      "Quantifying the research directions the paper's "
                      "conclusion proposes"};

  // ---------------------------------------------------- [1] rate adaptation
  std::cout << "\n[1] Rate adaptation (ADR ladder SF7..SF12, 20-byte "
               "packets) across the campus deployment:\n";
  Rng rng{11};
  auto deployment = testbed::Deployment::campus(rng);
  double fixed_total = 0.0, adaptive_total = 0.0;
  int adapted_nodes = 0;
  for (const auto& node : deployment.nodes()) {
    auto outcome = lora::evaluate_rate_adaptation(node.rssi, 20);
    if (!outcome) continue;
    ++adapted_nodes;
    fixed_total += outcome->fixed_airtime.value();
    adaptive_total += outcome->adaptive_airtime.value();
  }
  std::cout << "  " << adapted_nodes << "/20 nodes reachable; network "
            << "airtime per round: fixed SF12 "
            << TextTable::num(fixed_total, 2) << " s vs adaptive "
            << TextTable::num(adaptive_total, 2) << " s -> "
            << TextTable::num(fixed_total / adaptive_total, 1)
            << "x airtime saving (and the same factor in TX energy).\n";

  // ------------------------------------------------------ [2] broadcast OTA
  std::cout << "\n[2] Broadcast vs sequential OTA (100 kB compressed image, "
               "-100 dBm links):\n";
  std::vector<std::uint8_t> image(100 * 1024, 0xA5);
  std::vector<std::vector<double>> rows;
  for (int nodes : {1, 5, 10, 20}) {
    std::vector<ota::OtaLink> links;
    for (int i = 0; i < nodes; ++i)
      links.emplace_back(ota::ota_link_params(), Dbm{-100.0},
                         Rng{static_cast<std::uint64_t>(500 + i)});
    auto b = ota::broadcast(image, links);

    ota::AccessPoint ap;
    Seconds sequential{0.0};
    for (int i = 0; i < nodes; ++i) {
      ota::OtaLink link{ota::ota_link_params(), Dbm{-100.0},
                        Rng{static_cast<std::uint64_t>(600 + i)}};
      sequential += ap.transfer(image, static_cast<std::uint16_t>(i), link)
                        .total_time;
    }
    rows.push_back({static_cast<double>(nodes), sequential.value(),
                    b.total_time.value(), b.speedup_vs(sequential)});
  }
  run.series("nodes", "Nodes",
                      {"Sequential (s)", "Broadcast (s)", "Speedup"}, rows,
                      1);
  std::cout << "  Reading: sequential time grows linearly with fleet size; "
               "broadcast pays once plus repairs — the §7 'simultaneously "
               "broadcast the updates' win.\n";

  // ------------------------------------------------ [3] built-in modem path
  std::cout << "\n[3] FPGA PHY vs the AT86RF215's built-in MR-FSK modem "
               "(FPGA power-gated):\n";
  power::PlatformPowerModel model;
  double fpga_path =
      model.draw(power::Activity::kLoraTransmit, Dbm{14.0}).value();
  double bypass =
      (model.radio_tx_draw(radio::Band::kSubGhz900, Dbm{14.0}) +
       model.mcu().active + Milliwatts{10.0})
          .value();
  radio::BuiltinFskModem fsk;
  std::cout << "  TX platform power @14 dBm: FPGA LoRa path "
            << TextTable::num(fpga_path, 0) << " mW vs built-in FSK "
            << TextTable::num(bypass, 0) << " mW ("
            << TextTable::num(fpga_path - bypass, 0)
            << " mW saved by bypassing the FPGA), 0 LUTs used, 20-byte "
               "frame airtime "
            << TextTable::num(fsk.airtime(20).milliseconds(), 1) << " ms.\n";

  // ------------------------------------------------------- [4] localization
  std::cout << "\n[4] Phase-based ranging (10 tones, 902-920 MHz, "
               "I/Q phase access):\n";
  rows.clear();
  for (double noise_deg : {0.0, 5.0, 20.0, 45.0}) {
    Rng lr{13};
    core::RangingConfig cfg;
    double err_sum = 0.0;
    const int trials = 25;
    for (int t = 0; t < trials; ++t) {
      double d = 5.0 + 135.0 * lr.next_double();
      auto sweep = core::simulate_phase_sweep(
          cfg, d, noise_deg * 3.14159 / 180.0, lr);
      auto est = core::estimate_range(cfg, sweep);
      err_sum += std::abs(est.distance_m - d);
    }
    rows.push_back({noise_deg, err_sum / trials});
  }
  run.series("phase_noise_deg", "Phase noise (deg)", {"Mean ranging error (m)"}, rows,
                      3);

  // -------------------------------------------------------- [5] backscatter
  std::cout << "\n[5] Backscatter reader (tinySDR tone + envelope decoder, "
               "tag at -20 dB reflection, 10 kbps):\n";
  rows.clear();
  for (double snr : {20.0, 8.0, 2.0, -2.0, -6.0}) {
    Rng br{17};
    core::BackscatterConfig cfg;
    rows.push_back({snr, core::backscatter_ber(cfg, 400, snr, br)});
  }
  run.series("carrier_snr_db", "Carrier SNR (dB)", {"Tag BER"}, rows, 4);
  std::cout << "  Reading: the per-bit integrator's ~26 dB of processing "
               "gain buys back most of the -20 dB tag reflection; the "
               "reader needs roughly 15 dB of carrier SNR, i.e. it works "
               "wherever the bare tone is comfortably receivable.\n";
  return 0;
}
