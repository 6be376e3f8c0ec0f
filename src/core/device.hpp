// TinySdrDevice — the top-level facade wiring the whole platform together:
// AT86RF215 I/Q radio, RF front ends, FPGA (designs programmed
// from flash), MSP432 controller, backbone SX1276, PMU and energy ledger.
//
// This is the object a testbed script manipulates: wake it (22 ms, FPGA
// boots from flash while the radio sets up), load a PHY design, transmit /
// receive packets, check the energy bill, go back to 30 uW sleep.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "ble/advertiser.hpp"
#include "fpga/bitstream.hpp"
#include "fpga/programming.hpp"
#include "lora/demodulator.hpp"
#include "lora/modulator.hpp"
#include "mcu/msp432.hpp"
#include "ota/flash.hpp"
#include "power/ledger.hpp"
#include "radio/at86rf215.hpp"
#include "radio/frontend.hpp"

namespace tinysdr::core {

enum class DeviceState { kSleep, kActive };

class TinySdrDevice {
 public:
  explicit TinySdrDevice(std::uint16_t device_id);

  [[nodiscard]] std::uint16_t id() const { return device_id_; }
  [[nodiscard]] DeviceState state() const { return state_; }
  [[nodiscard]] const std::string& loaded_design() const {
    return loaded_design_;
  }

  // ------------------------------------------------------------ lifecycle

  /// Sleep -> active: FPGA boots its current bitstream from flash while the
  /// radio performs register setup; total latency max of the two (Table 4:
  /// 22 ms). Returns the wakeup latency and accrues its energy.
  Seconds wake();

  /// Active -> 30 uW sleep; records the sleep interval when the device next
  /// wakes (pass expected sleep duration for the ledger now).
  void sleep(Seconds planned_sleep = Seconds{0.0});

  // -------------------------------------------------------------- designs

  /// Store a bitstream in flash (e.g. delivered by OTA).
  void store_design(const fpga::FirmwareImage& image);

  /// Program the FPGA with a stored design. Returns programming time
  /// (22 ms quad-SPI load). @throws std::logic_error if unknown or asleep.
  Seconds load_design(const std::string& name);

  [[nodiscard]] std::size_t stored_designs() const {
    return store_.stored_count();
  }

  // ------------------------------------------------------------------- TX

  /// Modulate and "transmit" a LoRa packet; returns the antenna waveform
  /// (unit power; absolute level = tx_power). Accounts airtime energy.
  [[nodiscard]] dsp::Samples transmit_lora(
      std::span<const std::uint8_t> payload, const lora::LoraParams& params,
      Dbm tx_power);

  /// Transmit one BLE beacon burst across the three advertising channels;
  /// returns the per-channel waveforms. Accounts airtime + hop energy.
  [[nodiscard]] std::vector<dsp::Samples> transmit_ble_burst(
      const ble::AdvPacket& packet, Dbm tx_power);

  // ------------------------------------------------------------------- RX

  /// Receive a LoRa packet from an antenna waveform (through the radio's
  /// AGC/ADC path, then the FPGA demodulator).
  [[nodiscard]] std::optional<lora::DemodResult> receive_lora(
      const dsp::Samples& rf, const lora::LoraParams& params,
      Seconds listen_time);

  // ------------------------------------------------------------ accounting

  [[nodiscard]] const power::EnergyLedger& ledger() const { return ledger_; }
  [[nodiscard]] power::EnergyLedger& ledger() { return ledger_; }
  [[nodiscard]] const radio::At86rf215& radio() const { return radio_; }
  [[nodiscard]] radio::At86rf215& radio() { return radio_; }
  [[nodiscard]] ota::FlashModel& flash() { return flash_; }
  [[nodiscard]] mcu::Msp432& mcu() { return mcu_; }

 private:
  void require_active(const char* op) const;

  std::uint16_t device_id_;
  DeviceState state_ = DeviceState::kSleep;
  std::string loaded_design_;

  radio::At86rf215 radio_;
  radio::Frontend frontend_900_;
  radio::Frontend frontend_2400_;
  fpga::ProgrammingModel fpga_prog_;
  ota::FlashModel flash_;
  ota::FirmwareStore store_;
  mcu::Msp432 mcu_;
  power::PlatformPowerModel power_model_;
  power::EnergyLedger ledger_;
};

}  // namespace tinysdr::core
