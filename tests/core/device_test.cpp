#include "core/device.hpp"

#include <gtest/gtest.h>

#include "core/platform_db.hpp"

namespace tinysdr::core {
namespace {

TEST(TinySdrDevice, StartsAsleepAtMicrowatts) {
  TinySdrDevice dev{1};
  EXPECT_EQ(dev.state(), DeviceState::kSleep);
  // A planned sleep is billed at the 30 uW sleep floor.
  dev.sleep(Seconds{1.0});
  ASSERT_EQ(dev.ledger().entries().size(), 1u);
  EXPECT_NEAR(dev.ledger().entries()[0].draw.microwatts(), 30.0, 3.0);
}

TEST(TinySdrDevice, OperationsRequireWake) {
  TinySdrDevice dev{1};
  lora::LoraParams p{8, Hertz::from_kilohertz(500.0)};
  std::vector<std::uint8_t> payload{1, 2, 3};
  EXPECT_THROW((void)dev.transmit_lora(payload, p, Dbm{14.0}),
               std::logic_error);
  EXPECT_THROW((void)dev.load_design("x"), std::logic_error);
}

TEST(TinySdrDevice, WakeupLatencyIs22ms) {
  TinySdrDevice dev{1};
  Seconds latency = dev.wake();
  EXPECT_NEAR(latency.milliseconds(), 22.0, 0.5);
  EXPECT_EQ(dev.state(), DeviceState::kActive);
  // Second wake is a no-op.
  EXPECT_DOUBLE_EQ(dev.wake().value(), 0.0);
}

TEST(TinySdrDevice, DesignStoreAndLoad) {
  TinySdrDevice dev{1};
  Rng rng{1};
  auto image = fpga::generate_bitstream(fpga::lora_rx_design(8),
                                        fpga::DeviceSpec{}, rng);
  dev.store_design(image);
  EXPECT_EQ(dev.stored_designs(), 1u);
  dev.wake();
  Seconds t = dev.load_design(image.name);
  EXPECT_NEAR(t.milliseconds(), 22.0, 2.0);
  EXPECT_EQ(dev.loaded_design(), image.name);
  EXPECT_THROW((void)dev.load_design("unknown"), std::logic_error);
}

TEST(TinySdrDevice, LoraTransmitProducesWaveformAndEnergy) {
  TinySdrDevice dev{1};
  dev.wake();
  dev.radio().set_frequency(Hertz::from_megahertz(915.0));
  lora::LoraParams p{8, Hertz::from_kilohertz(500.0)};
  std::vector<std::uint8_t> payload{0xCA, 0xFE};
  double energy_before = dev.ledger().total_energy().value();
  auto wave = dev.transmit_lora(payload, p, Dbm{14.0});
  EXPECT_FALSE(wave.empty());
  EXPECT_GT(dev.ledger().total_energy().value(), energy_before);
}

TEST(TinySdrDevice, LoraLoopbackThroughRadioPath) {
  // TX on one device, RX on another, through the AGC/ADC chain.
  TinySdrDevice tx{1}, rx{2};
  tx.wake();
  rx.wake();
  tx.radio().set_frequency(Hertz::from_megahertz(915.0));
  rx.radio().set_frequency(Hertz::from_megahertz(915.0));
  lora::LoraParams p{8, Hertz::from_kilohertz(500.0)};
  std::vector<std::uint8_t> payload{0x10, 0x20, 0x30};
  auto wave = tx.transmit_lora(payload, p, Dbm{0.0});

  // Pad as a capture window.
  dsp::Samples padded(4096, dsp::Complex{0, 0});
  padded.insert(padded.end(), wave.begin(), wave.end());
  padded.insert(padded.end(), 4096, dsp::Complex{0, 0});
  auto result = rx.receive_lora(padded, p, Seconds::from_milliseconds(50.0));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->packet.crc_valid);
  EXPECT_EQ(result->packet.payload, payload);
}

TEST(TinySdrDevice, BleBurstAcrossChannels) {
  TinySdrDevice dev{1};
  dev.wake();
  ble::AdvPacket beacon;
  beacon.adv_address = {1, 2, 3, 4, 5, 6};
  beacon.adv_data = {0x02, 0x01, 0x06};
  auto waves = dev.transmit_ble_burst(beacon, Dbm{0.0});
  EXPECT_EQ(waves.size(), 3u);
  for (const auto& w : waves) EXPECT_FALSE(w.empty());
  // Radio ends on the last advertising channel.
  EXPECT_EQ(dev.radio().band(), radio::Band::kIsm2400);
}

TEST(TinySdrDevice, SleepAccountsPlannedInterval) {
  TinySdrDevice dev{1};
  dev.wake();
  dev.sleep(Seconds{100.0});
  EXPECT_EQ(dev.state(), DeviceState::kSleep);
  // 100 s at ~30 uW = ~3 mJ of sleep energy recorded.
  bool found = false;
  for (const auto& e : dev.ledger().entries()) {
    if (e.note == "sleep") {
      EXPECT_NEAR(e.energy.value(), 3.0, 0.5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TinySdrDevice, DutyCycleEnergyBudget) {
  // A day of 0.1% duty cycling stays in the microamp-hour class.
  TinySdrDevice dev{1};
  dev.wake();
  dev.radio().set_frequency(Hertz::from_megahertz(915.0));
  lora::LoraParams p{8, Hertz::from_kilohertz(500.0)};
  std::vector<std::uint8_t> payload{1, 2, 3, 4};
  (void)dev.transmit_lora(payload, p, Dbm{14.0});
  dev.sleep(Seconds{86400.0 * 0.999});
  BatteryCapacity battery{1000.0, 3.7};
  double days = battery.energy().value() /
                dev.ledger().total_energy().value();
  EXPECT_GT(days, 1000.0);  // years of life
}

TEST(PlatformDb, Table1Invariants) {
  const auto& platforms = sdr_platforms();
  ASSERT_EQ(platforms.size(), 8u);
  const auto& tinysdr = platforms.back();
  EXPECT_EQ(tinysdr.name, "TinySDR");
  EXPECT_TRUE(tinysdr.ota_programming);
  // TinySDR is the only OTA-programmable platform.
  for (std::size_t i = 0; i + 1 < platforms.size(); ++i)
    EXPECT_FALSE(platforms[i].ota_programming) << platforms[i].name;
  // 10,000x sleep-power claim vs every platform with a sleep figure.
  for (const auto& p : platforms) {
    if (p.name == "TinySDR" || !p.sleep_power) continue;
    EXPECT_GE(p.sleep_power->value() / tinysdr.sleep_power->value(), 10000.0)
        << p.name;
  }
  // Cheapest and smallest in the table.
  for (const auto& p : platforms) {
    if (p.name == "TinySDR") continue;
    EXPECT_GT(p.cost_usd, tinysdr.cost_usd) << p.name;
    EXPECT_GT(p.size_cm2, tinysdr.size_cm2) << p.name;
  }
}

TEST(PlatformDb, Table2OnlyAt86rf215FitsAllRequirements) {
  // §3.1.1: "only the AT86RF215 supports all of our requirements":
  // both bands and under $10.
  const auto& modules = iq_radio_modules();
  int qualifying = 0;
  std::string winner;
  for (const auto& m : modules) {
    if (m.covers_900mhz && m.covers_2400mhz && m.cost_usd < 10.0) {
      ++qualifying;
      winner = m.name;
    }
  }
  EXPECT_EQ(qualifying, 1);
  EXPECT_EQ(winner, "AT86RF215");
}

TEST(PlatformDb, Table5TotalMatchesPaper) {
  EXPECT_NEAR(bom_total_usd(), 54.53, 0.01);
}

}  // namespace
}  // namespace tinysdr::core
