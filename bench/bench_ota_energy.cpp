// Reproduces the §5.3 OTA numbers: compressed image sizes, node-side
// energy per update (paper: 6144 mJ LoRa FPGA / 2342 mJ BLE FPGA), update
// counts on a 1000 mAh battery (2100 / 5600), and the amortized power of
// daily reprogramming (71 uW / 27 uW).
#include "bench_common.hpp"
#include "ota/update.hpp"

using namespace tinysdr;
using namespace tinysdr::ota;

namespace {

UpdateReport run_update(const fpga::FirmwareImage& image, UpdateTarget target,
                        Dbm rssi, std::uint64_t seed) {
  Rng rng{seed};
  OtaLink link{ota_link_params(), rssi, rng};
  FlashModel flash;
  mcu::Msp432 mcu = mcu::baseline_firmware();
  UpdatePlanner planner;
  return planner.run(UpdatePlanner::prepare(image), target, 1, link, flash,
                     mcu);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun run{argc, argv, "OTA energy", "paper §5.3",
                      "Per-update compressed sizes, node energy, battery "
                      "budget, amortized power"};

  Rng img_rng{42};
  auto lora_fpga = fpga::generate_bitstream(fpga::lora_rx_design(8),
                                            fpga::DeviceSpec{}, img_rng);
  auto ble_fpga = fpga::generate_bitstream(fpga::ble_tx_design(),
                                           fpga::DeviceSpec{}, img_rng);
  auto mcu_prog = fpga::generate_mcu_program("mcu_fw", 78 * 1024, img_rng);

  const Dbm rssi{-100.0};  // mid-testbed link
  auto lora_report = run_update(lora_fpga, UpdateTarget::kFpga, rssi, 1);
  auto ble_report = run_update(ble_fpga, UpdateTarget::kFpga, rssi, 2);
  auto mcu_report = run_update(mcu_prog, UpdateTarget::kMcu, rssi, 3);

  BatteryCapacity battery{1000.0, 3.7};
  TextTable table{{"Update", "Original (kB)", "Compressed (kB)",
                   "Airtime (s)", "Total time (s)", "Node energy (mJ)",
                   "Updates / 1000 mAh", "Daily avg (uW)"}};
  struct Row {
    const char* label;
    const UpdateReport* r;
    double paper_energy;
  } entries[] = {{"FPGA: LoRa (paper 6144 mJ, 2100x, 71 uW)", &lora_report,
                  6144.0},
                 {"FPGA: BLE (paper 2342 mJ, 5600x, 27 uW)", &ble_report,
                  2342.0},
                 {"MCU program", &mcu_report, 0.0}};
  for (const auto& e : entries) {
    double updates = battery.energy().value() / e.r->total_energy.value();
    double daily_uw =
        amortized_update_power(*e.r, Seconds{86400.0}).microwatts();
    table.add_row(
        {e.label,
         TextTable::num(static_cast<double>(e.r->original_bytes) / 1024, 0),
         TextTable::num(static_cast<double>(e.r->compressed_bytes) / 1024, 0),
         TextTable::num(e.r->transfer.airtime.value(), 1),
         TextTable::num(e.r->total_time.value(), 1),
         TextTable::num(e.r->total_energy.value(), 0),
         TextTable::num(updates, 0), TextTable::num(daily_uw, 0)});
  }
  table.print(std::cout);

  std::cout << "\nPaper anchors: LoRa FPGA 579->99 kB, BLE 579->40 kB, MCU "
               "78->24 kB; decompress <= 450 ms (measured "
            << TextTable::num(lora_report.decompress_time.milliseconds(), 0)
            << " ms); FPGA reprogram "
            << TextTable::num(lora_report.reprogram_time.milliseconds(), 0)
            << " ms.\n";
  return 0;
}
