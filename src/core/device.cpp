#include "core/device.hpp"

#include <stdexcept>

#include "lora/airtime.hpp"

namespace tinysdr::core {

TinySdrDevice::TinySdrDevice(std::uint16_t device_id)
    : device_id_(device_id),
      frontend_900_(radio::se2435l_spec()),
      frontend_2400_(radio::sky66112_spec()),
      store_(flash_),
      mcu_(mcu::baseline_firmware()),
      ledger_(power_model_) {}

void TinySdrDevice::require_active(const char* op) const {
  if (state_ != DeviceState::kActive)
    throw std::logic_error(std::string("TinySdrDevice: ") + op +
                           " while asleep");
}

Seconds TinySdrDevice::wake() {
  if (state_ == DeviceState::kActive) return Seconds{0.0};
  // FPGA boot (22 ms from flash) in parallel with radio setup (1.2 ms).
  Seconds fpga_boot = loaded_design_.empty()
                          ? Seconds{0.0}
                          : fpga_prog_.load_time(579 * 1024);
  Seconds radio_setup = radio_.wake();
  Seconds latency = std::max(fpga_boot, radio_setup);
  // Cap at the Table 4 value: the measured number includes both.
  latency = std::max(latency, radio_.timing().sleep_to_radio);
  state_ = DeviceState::kActive;
  mcu_.set_mode(mcu::McuMode::kActive);
  // Wakeup burns roughly the RX-chain power for its duration.
  ledger_.record_draw(power::Activity::kLoraReceive, latency,
                      power_model_.draw(power::Activity::kLoraReceive),
                      "wakeup");
  return latency;
}

void TinySdrDevice::sleep(Seconds planned_sleep) {
  radio_.sleep();
  mcu_.set_mode(mcu::McuMode::kLpm3);
  frontend_900_.set_mode(radio::FrontendMode::kSleep);
  frontend_2400_.set_mode(radio::FrontendMode::kSleep);
  state_ = DeviceState::kSleep;
  if (planned_sleep.value() > 0.0)
    ledger_.record(power::Activity::kSleep, planned_sleep, Dbm{0.0}, "sleep");
}

void TinySdrDevice::store_design(const fpga::FirmwareImage& image) {
  store_.store(image.name, image.data);
}

Seconds TinySdrDevice::load_design(const std::string& name) {
  require_active("load_design");
  auto image = store_.load(name);
  if (!image)
    throw std::logic_error("TinySdrDevice: unknown design " + name);
  loaded_design_ = name;
  Seconds t = fpga_prog_.load_time(image->size());
  ledger_.record(power::Activity::kDecompress, t, Dbm{0.0},
                 "fpga program " + name);
  return t;
}

dsp::Samples TinySdrDevice::transmit_lora(
    std::span<const std::uint8_t> payload, const lora::LoraParams& params,
    Dbm tx_power) {
  require_active("transmit_lora");
  radio_.set_tx_power(tx_power);
  radio_.enter_tx();

  // Select the front end for the current band (bypass below 14 dBm).
  auto& fe = radio_.band() == radio::Band::kIsm2400 ? frontend_2400_
                                                    : frontend_900_;
  fe.set_mode(radio::FrontendMode::kBypass);

  lora::Modulator mod{params, radio_.config().sample_rate};
  auto baseband = mod.modulate(payload);
  auto antenna = radio_.transmit(baseband);

  Seconds airtime = lora::time_on_air(params, payload.size());
  ledger_.record(power::Activity::kLoraTransmit, airtime, tx_power,
                 "lora tx");
  return antenna;
}

std::vector<dsp::Samples> TinySdrDevice::transmit_ble_burst(
    const ble::AdvPacket& packet, Dbm tx_power) {
  require_active("transmit_ble_burst");
  radio_.set_tx_power(tx_power);
  radio_.retune(Hertz::from_megahertz(ble::kAdvChannels[0].freq_mhz));
  radio_.enter_tx();
  frontend_2400_.set_mode(radio::FrontendMode::kBypass);

  ble::Advertiser advertiser{packet};
  std::vector<dsp::Samples> waves;
  for (const auto& chan : ble::kAdvChannels) {
    radio_.retune(Hertz::from_megahertz(chan.freq_mhz));
    waves.push_back(advertiser.waveform(chan.index));
    Seconds airtime = Seconds::from_microseconds(ble::airtime_us(packet));
    ledger_.record(power::Activity::kBleTransmit, airtime, tx_power,
                   "ble beacon ch" + std::to_string(chan.index));
  }
  return waves;
}

std::optional<lora::DemodResult> TinySdrDevice::receive_lora(
    const dsp::Samples& rf, const lora::LoraParams& params,
    Seconds listen_time) {
  require_active("receive_lora");
  radio_.enter_rx();
  auto& fe = radio_.band() == radio::Band::kIsm2400 ? frontend_2400_
                                                    : frontend_900_;
  fe.set_mode(radio::FrontendMode::kBypass);

  auto conditioned_rf = radio_.receive(rf);
  // Critical-rate demodulation on the FPGA.
  lora::Demodulator demod{params, radio_.config().sample_rate};
  auto result = demod.receive(conditioned_rf);
  ledger_.record(power::Activity::kLoraReceive, listen_time, Dbm{0.0},
                 "lora rx");
  return result;
}

}  // namespace tinysdr::core
