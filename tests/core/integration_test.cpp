// Cross-module integration tests: full OTA-update-then-operate scenarios
// exercising radio, FPGA, flash, MCU, power and both PHYs together.
#include <gtest/gtest.h>

#include "core/device.hpp"
#include "lora/mac.hpp"
#include "ota/update.hpp"
#include "testbed/campaign.hpp"

namespace tinysdr::core {
namespace {

TEST(Integration, OtaUpdateThenSwitchProtocolFromFlash) {
  // The §3.1.2 scenario: multiple images in flash allow protocol switching
  // without re-sending data over the air.
  TinySdrDevice dev{1};
  Rng rng{1};
  auto lora_img = fpga::generate_bitstream(fpga::lora_rx_design(8),
                                           fpga::DeviceSpec{}, rng);
  auto ble_img =
      fpga::generate_bitstream(fpga::ble_tx_design(), fpga::DeviceSpec{}, rng);
  dev.store_design(lora_img);
  dev.store_design(ble_img);
  dev.wake();

  Seconds t1 = dev.load_design(lora_img.name);
  Seconds t2 = dev.load_design(ble_img.name);
  // Both reprogram in ~22 ms — "minimal system down time".
  EXPECT_LT(t1.milliseconds(), 25.0);
  EXPECT_LT(t2.milliseconds(), 25.0);
  EXPECT_EQ(dev.loaded_design(), ble_img.name);
}

TEST(Integration, MacOverPhyEndToEnd) {
  // LoRaWAN-style frame over the actual CSS PHY between two devices.
  auto mac_dev = lora::MacDevice::otaa(0x1234, lora::AppKey{});
  lora::MacNetwork network{lora::AppKey{}};
  auto accept = network.handle_join(mac_dev.join_request());
  ASSERT_TRUE(accept.has_value());
  ASSERT_TRUE(mac_dev.handle_join_accept(*accept));

  TinySdrDevice node{1}, gateway{2};
  node.wake();
  gateway.wake();
  node.radio().set_frequency(Hertz::from_megahertz(915.0));
  gateway.radio().set_frequency(Hertz::from_megahertz(915.0));

  lora::LoraParams params{8, Hertz::from_kilohertz(500.0)};
  std::vector<std::uint8_t> sensor_data{0x17, 0x2A};
  auto frame = mac_dev.uplink(sensor_data);
  auto wave = node.transmit_lora(frame, params, Dbm{14.0});

  dsp::Samples padded(4096, dsp::Complex{0, 0});
  padded.insert(padded.end(), wave.begin(), wave.end());
  padded.insert(padded.end(), 4096, dsp::Complex{0, 0});
  auto rx = gateway.receive_lora(padded, params,
                                 Seconds::from_milliseconds(100.0));
  ASSERT_TRUE(rx.has_value());
  ASSERT_TRUE(rx->packet.crc_valid);

  auto mac_rx = network.handle_uplink(rx->packet.payload);
  ASSERT_TRUE(mac_rx.has_value());
  EXPECT_EQ(mac_rx->payload, sensor_data);
  EXPECT_EQ(mac_rx->dev_addr, mac_dev.dev_addr());
}

TEST(Integration, FullOtaPipelineDeliversLoadableDesign) {
  // OTA-transfer a bitstream, then boot it on the device.
  Rng img_rng{2};
  auto image = fpga::generate_bitstream(fpga::lora_rx_design(9),
                                        fpga::DeviceSpec{}, img_rng);
  TinySdrDevice dev{7};
  Rng link_rng{3};
  ota::OtaLink link{ota::ota_link_params(), Dbm{-90.0}, link_rng};
  ota::UpdatePlanner planner;
  auto report = planner.run(ota::UpdatePlanner::prepare(image),
                            ota::UpdateTarget::kFpga, dev.id(), link,
                            dev.flash(), dev.mcu());
  ASSERT_TRUE(report.success);

  // The boot region now holds the image; register it and load.
  dev.store_design(image);
  dev.wake();
  EXPECT_NO_THROW((void)dev.load_design(image.name));
}

TEST(Integration, DailyDutyCycleBudgetWithOta) {
  // One sensor uplink per 10 minutes + one OTA update per month, modeled
  // over a day: average power stays battery-friendly.
  power::PlatformPowerModel model;
  power::EnergyLedger day{model};
  lora::LoraParams p{9, Hertz::from_kilohertz(500.0)};
  Seconds packet_airtime = lora::time_on_air(p, 20);
  for (int i = 0; i < 144; ++i) {
    day.record(power::Activity::kLoraTransmit, packet_airtime, Dbm{14.0});
    day.record_draw(power::Activity::kLoraReceive,
                    Seconds::from_milliseconds(22.0),
                    model.draw(power::Activity::kLoraReceive), "wakeup");
  }
  double active_s = day.total_time().value();
  day.record(power::Activity::kSleep, Seconds{86400.0 - active_s});
  // One-thirtieth of an OTA LoRa update per day: 6144/30 mJ.
  Millijoules ota_share{6144.0 / 30.0};
  double avg_mw =
      (day.total_energy().value() + ota_share.value()) / 86400.0;
  // Sub-0.1 mW: multi-year battery life.
  EXPECT_LT(avg_mw, 0.1);
}

TEST(Integration, CampaignProducesFig14StyleSpread) {
  // Small image so the test stays fast; relative spread is what matters.
  Rng rng{4};
  auto deployment = testbed::Deployment::campus(rng);
  Rng img_rng{5};
  auto image = fpga::generate_mcu_program("fw", 24 * 1024, img_rng);
  Rng campaign_rng{6};
  auto result = testbed::run_campaign(deployment, image,
                                      ota::UpdateTarget::kMcu, campaign_rng);
  ASSERT_EQ(result.successes(), 20u);
  auto cdf = result.time_cdf_minutes();
  // Far nodes retransmit: the CDF must have real spread, not a step.
  EXPECT_GT(cdf.back().value, cdf.front().value);
}

}  // namespace
}  // namespace tinysdr::core
