// Research study (paper §6): can an IoT endpoint decode concurrent LoRa
// transmissions in real time within its power and resource budget?
//
// Two transmitters share a channel using quasi-orthogonal chirp slopes
// (SF8/BW125 and SF8/BW250); a single tinySDR runs one dechirp+FFT branch
// per configuration on its FPGA. This example walks the whole argument:
// orthogonality check, resource budget, power budget, and the decode
// quality at equal and asymmetric powers.
//
// Build:  cmake --build build && ./build/examples/concurrent_rx
#include <iostream>

#include "core/concurrent.hpp"
#include "dsp/nco.hpp"
#include "flow/blocks.hpp"
#include "flow/graph.hpp"
#include "phy/link_sim.hpp"
#include "phy/lora_phy.hpp"

using namespace tinysdr;
using namespace tinysdr::core;

int main() {
  const Hertz fs = Hertz::from_kilohertz(500.0);
  const phy::LoraPhyConfig cfg_a{.params = {8, Hertz::from_kilohertz(125.0)},
                                 .sample_rate = fs};
  const phy::LoraPhyConfig cfg_b{.params = {8, Hertz::from_kilohertz(250.0)},
                                 .sample_rate = fs};
  const lora::LoraParams& a = cfg_a.params;
  const lora::LoraParams& b = cfg_b.params;

  std::cout << "Configurations:\n"
            << "  A: SF8/BW125, chirp slope " << a.chirp_slope() / 1e6
            << " MHz/s\n"
            << "  B: SF8/BW250, chirp slope " << b.chirp_slope() / 1e6
            << " MHz/s\n"
            << "  orthogonal (slopes differ): "
            << (lora::orthogonal(a, b) ? "yes" : "no") << "\n";

  ConcurrentReceiver receiver{{a, b}};
  fpga::DeviceSpec device;
  auto design = receiver.design();
  std::cout << "\nResource budget: " << design.total_luts() << " LUTs = "
            << design.utilization(device) * 100.0
            << "% of the LFE5U-25F (paper: 17%)\n"
            << "Power budget: " << receiver.platform_power().value()
            << " mW while decoding both streams (paper: 207 mW)\n";

  // Each branch is a LinkSimulator whose victim is one configuration and
  // whose PhyTxInterferer is the other, both in one 500 kHz capture: one
  // trial of 150 payload bytes is 150 SF8 chirp symbols.
  const phy::LoraSymbolTx tx_a{cfg_a}, tx_b{cfg_b};
  const phy::LoraSymbolRx rx_a{cfg_a}, rx_b{cfg_b};
  phy::TrialPlan plan;
  plan.trials = 1;
  plan.payload_bytes = 150;
  plan.noise_figure_db = phy::kLoraSystemNf;
  plan.base_seed = 42;
  const phy::PhyTxInterferer from_b{tx_b, plan.payload_bytes};
  const phy::PhyTxInterferer from_a{tx_a, plan.payload_bytes};
  phy::LinkSimulator branch_a{tx_a, rx_a, plan};
  branch_a.add_interferer(from_b);
  phy::LinkSimulator branch_b{tx_b, rx_b, plan};
  branch_b.add_interferer(from_a);

  std::cout << "\n[1] Equal received power, sweeping level:\n";
  for (double rssi : {-110.0, -118.0, -122.0, -126.0}) {
    const phy::SweepPoint point{Dbm{rssi}, Dbm{rssi}};
    const auto ra = branch_a.run_point(point);
    const auto rb = branch_b.run_point(point);
    std::cout << "  " << rssi << " dBm: SER A " << ra.ser() * 100.0
              << "%, SER B " << rb.ser() * 100.0 << "%  (" << ra.symbols
              << "+" << rb.symbols << " symbols)\n";
  }

  std::cout << "\n[2] A fixed at -123 dBm, interferer B sweeping "
               "(the power-control argument):\n";
  for (double interferer : {-126.0, -118.0, -112.0, -106.0}) {
    const auto ra = branch_a.run_point({Dbm{-123.0}, Dbm{interferer}});
    std::cout << "  interferer " << interferer << " dBm: SER A "
              << ra.ser() * 100.0 << "%\n";
  }

  // The "one antenna, two branches" architecture as a flowgraph: the
  // captured stream fans out through a zero-copy tap, so each branch
  // (here: a per-band power monitor after its own channel filter) reads
  // the same samples without the source being copied per consumer.
  std::cout << "\n[3] Fan-out sketch: one capture, two monitor branches:\n";
  dsp::Samples capture(8192);
  dsp::Nco lo_tone, hi_tone;
  lo_tone.set_frequency(0.02);   // in-band for the 0.125 low-pass
  hi_tone.set_frequency(0.37);   // far out of band
  for (auto& s : capture) s = 0.5f * (lo_tone.next() + hi_tone.next());

  flow::FlowGraph fanout;
  auto* src = fanout.add_block<flow::VectorSource>(capture);
  auto* band_a = fanout.add_block<flow::FirBlock>(dsp::design_lowpass(14, 0.125));
  auto* probe_a = fanout.add_block<flow::PowerProbe>();
  auto* probe_raw = fanout.add_block<flow::PowerProbe>();
  fanout.connect(src, band_a);
  fanout.connect(band_a, probe_a);
  fanout.connect_tap(src, probe_raw);  // second branch, zero extra copies
  auto report = fanout.run();
  std::cout << "  graph " << flow::to_string(report.state)
            << ": raw mean power " << probe_raw->mean_power()
            << ", band-A (low-pass) mean power " << probe_a->mean_power()
            << " — the filter keeps the in-band tone's half of the "
               "power, the tap sees everything\n";

  std::cout << "\nConclusion (paper): an IoT endpoint CAN decode concurrent "
               "LoRa in real time — at 17% of a small FPGA and ~207 mW — "
               "but links need power control once an interferer rises "
               "above the noise floor.\n";
  return 0;
}
