// MAC-layer studies from the paper's §7 research questions:
//   [1] "What is the trade-off between packet length and overall
//       throughput?" — goodput vs payload size at several link margins.
//   [2] Multi-hop PHY/MAC: when does relaying beat a slow direct link?
//   [3] OTA rendezvous: listen-interval trade-off (idle power vs latency).
//   [4] Front-end impairment budget: demodulator SER vs DC/IQ/CFO errors.
#include <cmath>

#include "bench_common.hpp"
#include "channel/noise.hpp"
#include "impair/impair.hpp"
#include "lora/demodulator.hpp"
#include "lora/modulator.hpp"
#include "ota/protocol.hpp"
#include "ota/scheduler.hpp"
#include "phy/lora_phy.hpp"
#include "radio/at86rf215.hpp"
#include "testbed/multihop.hpp"

using namespace tinysdr;

namespace {

/// Goodput (payload bits / airtime / (1-PER)^-1 expected transmissions).
double goodput(const lora::LoraParams& params, std::size_t payload, Dbm rssi,
               Rng& rng) {
  ota::OtaLink link{params, rssi, rng};
  double per = link.packet_error_rate(payload);
  double toa = lora::time_on_air(params, payload).value();
  // Stop-and-wait with retransmissions: expected time per delivered packet.
  double expected_tx = 1.0 / std::max(1e-9, 1.0 - per);
  return 8.0 * static_cast<double>(payload) / (toa * expected_tx);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun run{argc, argv, "MAC studies",
                      "paper §7 research questions",
                      "Packet length, multi-hop, rendezvous and impairment "
                      "budgets"};

  // ------------------------------------------- [1] packet length tradeoff
  std::cout << "\n[1] Packet length vs goodput (SF8/BW125, stop-and-wait):\n";
  lora::LoraParams p{8, Hertz::from_kilohertz(125.0)};
  std::vector<std::vector<double>> rows;
  for (std::size_t len : {8ul, 16ul, 32ul, 64ul, 128ul, 255ul}) {
    std::vector<double> row{static_cast<double>(len)};
    for (double margin : {10.0, 2.5, 1.0}) {
      Dbm rssi = lora::sx1276_sensitivity(8, p.bandwidth) + margin;
      Rng rng{len};
      row.push_back(goodput(p, len, rssi, rng));
    }
    rows.push_back(row);
  }
  run.series("goodput_vs_payload", "Payload (B)",
             {"Goodput @+10dB (bps)", "@+2.5dB (bps)", "@+1dB (bps)"}, rows,
             0);
  std::cout << "  Reading: with margin, longer packets amortize the "
               "preamble and keep winning; near sensitivity the PER "
               "length-penalty flattens the curve (128 B -> 255 B buys "
               "~1%) — the §7 packet-length question has an RSSI-dependent "
               "answer, which is also why the OTA protocol stops at "
               "60 B.\n";

  // ------------------------------------------------------- [2] multi-hop
  std::cout << "\n[2] Multi-hop relaying (915 MHz, exponent 3.2, 20-byte "
               "payloads):\n";
  channel::PathLossModel model{Hertz::from_megahertz(915.0), 3.2};
  rows.clear();
  for (double dist : {500.0, 1000.0, 1500.0, 2000.0}) {
    testbed::MeshNetwork mesh{model, Dbm{14.0}};
    mesh.add_node({1, dist / 2.0});  // a relay at the midpoint
    mesh.add_node({2, dist});
    auto outcome = testbed::compare_direct_vs_relayed(mesh, 2, 20);
    double direct_ms = outcome.direct_possible
                           ? outcome.direct_airtime.milliseconds()
                           : -1.0;
    double relay_ms = outcome.relayed
                          ? outcome.relayed->total_airtime().milliseconds()
                          : -1.0;
    double hops = outcome.relayed
                      ? static_cast<double>(outcome.relayed->hop_count())
                      : 0.0;
    rows.push_back({dist, direct_ms, relay_ms, hops});
  }
  run.series(
      "multihop", "Distance (m)",
      {"Direct airtime (ms, -1=unreachable)", "Routed airtime (ms)", "Hops"},
      rows, 1);
  std::cout << "  Reading: once the direct link needs SF11/12, two SF7-9 "
               "hops through the midpoint relay deliver the same packet in "
               "a fraction of the airtime — and extend coverage past the "
               "direct-range cliff.\n";

  // ------------------------------------------------------ [3] rendezvous
  std::cout << "\n[3] OTA rendezvous listen interval (50 ms backbone "
               "windows):\n";
  rows.clear();
  for (double interval_s : {10.0, 60.0, 600.0, 3600.0}) {
    ota::ListenSchedule s;
    s.interval = Seconds{interval_s};
    rows.push_back({interval_s,
                    ota::idle_listen_power(s).microwatts(),
                    ota::average_rendezvous(s).value()});
  }
  run.series("rendezvous", "Interval (s)",
             {"Idle power (uW)", "Mean update latency (s)"}, rows, 1);
  std::cout << "  Reading: the paper's periodic-timer design spans a clean "
               "Pareto front; at 10-minute intervals the standing cost is "
               "microwatts while updates start within minutes.\n";

  // ----------------------------------------------------- [4] impairments
  std::cout << "\n[4] Front-end impairment budget (SF8/BW125 SER at "
               "-122 dBm, calibrated NF):\n";
  // The front-end defects are impair:: blocks applied in the order IQ
  // imbalance, DC offset, CFO to the noisy capture, ahead of the
  // AT86RF215's AGC and ADC. The DC leak is a fraction of the capture's
  // RMS and lands on both rails; the CFO is in Hz.
  struct FrontEnd {
    double dc_fraction = 0.0;
    double iq_gain_db = 0.0;
    double iq_phase_deg = 0.0;
    double cfo_hz = 0.0;
  };
  auto ser_with = [&](const FrontEnd& fe) {
    lora::LoraParams cfg{8, Hertz::from_kilohertz(125.0)};
    lora::ChirpGenerator gen{cfg, cfg.bandwidth};
    radio::At86rf215Config rcfg;
    rcfg.sample_rate = cfg.bandwidth;
    radio::At86rf215 rx_radio{rcfg};
    rx_radio.wake();
    rx_radio.enter_rx();

    Rng rng{31};
    const std::size_t count = 300;
    std::vector<std::uint32_t> tx;
    dsp::Samples wave;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t v = rng.next_below(cfg.chips());
      tx.push_back(v);
      auto sym = gen.symbol(v, lora::ChirpDirection::kUp);
      wave.insert(wave.end(), sym.begin(), sym.end());
    }
    channel::AwgnChannel chan{cfg.bandwidth, phy::kLoraSystemNf, rng};
    auto noisy = chan.apply(wave, Dbm{-122.0});
    const auto dc = static_cast<float>(
        fe.dc_fraction * std::sqrt(dsp::mean_power(noisy)));
    const impair::IqImbalance iq{fe.iq_gain_db, fe.iq_phase_deg};
    const impair::DcOffset leak{{dc, dc}};
    const impair::CfoDrift cfo{fe.cfo_hz / cfg.bandwidth.value()};
    impair::apply_stage({{&iq, impair::Stage::kRx},
                         {&leak, impair::Stage::kRx},
                         {&cfo, impair::Stage::kRx}},
                        impair::Stage::kRx, noisy, 0, 0);
    auto through = rx_radio.receive(noisy);
    lora::Demodulator demod{cfg, cfg.bandwidth};
    auto rx = demod.demodulate_aligned(through, 0, count);
    std::size_t errors = 0;
    for (std::size_t i = 0; i < rx.size(); ++i)
      if (rx[i] != tx[i]) ++errors;
    return 100.0 * static_cast<double>(errors) /
           static_cast<double>(rx.size());
  };

  TextTable table{{"Impairment", "SER (%)"}};
  auto impairment_row = [&](const std::string& label,
                            const std::string& scalar_name,
                            const FrontEnd& fe) {
    double ser = ser_with(fe);
    table.add_row({label, TextTable::num(ser, 2)});
    run.scalar(scalar_name, ser);
  };
  impairment_row("none", "ser_clean_pct", {});
  impairment_row("DC offset -20 dB", "ser_dc_offset_pct", {.dc_fraction = 0.1});
  impairment_row("IQ 1 dB / 5 deg", "ser_iq_imbalance_pct",
                 {.iq_gain_db = 1.0, .iq_phase_deg = 5.0});
  impairment_row("CFO 200 Hz", "ser_cfo_pct", {.cfo_hz = 200.0});
  impairment_row("all of the above", "ser_all_pct",
                 {.dc_fraction = 0.1,
                  .iq_gain_db = 1.0,
                  .iq_phase_deg = 5.0,
                  .cfo_hz = 200.0});
  table.print(std::cout);
  std::cout << "  Reading: DC offset and IQ imbalance are immaterial to "
               "CSS (part of why a $5.5 radio chip reaches LoRa-chipset "
               "sensitivity); uncorrected CFO is the impairment that "
               "bites, which is exactly why the receiver estimates it "
               "from the preamble/SFD during synchronisation — the full "
               "receive path absorbs this 200 Hz without loss.\n";
  return 0;
}
