#include "ota/protocol.hpp"

#include <gtest/gtest.h>

#include "ota/update.hpp"

namespace tinysdr::ota {
namespace {

TEST(OtaLinkParams, MatchPaperConfiguration) {
  // §5.3: SF = 8, BW = 500 kHz, CodingRate = 6, 8-chirp preamble.
  auto p = ota_link_params();
  EXPECT_EQ(p.sf, 8);
  EXPECT_NEAR(p.bandwidth.kilohertz(), 500.0, 1e-9);
  EXPECT_EQ(p.cr, lora::CodingRate::kCr46);
  EXPECT_EQ(p.preamble_symbols, kOtaPreambleSymbols);
}

TEST(OtaLink, PerNearZeroAtStrongRssi) {
  Rng rng{1};
  OtaLink link{ota_link_params(), Dbm{-80.0}, rng};
  EXPECT_LT(link.packet_error_rate(kDataPayload), 1e-6);
}

TEST(OtaLink, PerNearOneFarBelowSensitivity) {
  Rng rng{2};
  OtaLink link{ota_link_params(), Dbm{-135.0}, rng};
  EXPECT_GT(link.packet_error_rate(kDataPayload), 0.999);
}

TEST(OtaLink, PerWaterfallAroundSensitivity) {
  Rng rng{3};
  Dbm sensitivity =
      lora::sx1276_sensitivity(8, Hertz::from_kilohertz(500.0));
  OtaLink at{ota_link_params(), sensitivity, rng};
  double per = at.packet_error_rate(kDataPayload);
  EXPECT_GT(per, 0.2);
  EXPECT_LT(per, 0.95);
}

TEST(OtaLink, LongerPacketsSlightlyWorse) {
  Rng rng{4};
  Dbm rssi = lora::sx1276_sensitivity(8, Hertz::from_kilohertz(500.0)) + 1.0;
  OtaLink link{ota_link_params(), rssi, rng};
  EXPECT_GT(link.packet_error_rate(200), link.packet_error_rate(10));
}

TEST(OtaPacket, WireSizes) {
  OtaPacket data{OtaPacketType::kData, 1, 0, 0,
                 std::vector<std::uint8_t>(60, 0)};
  EXPECT_EQ(data.wire_size(), 67u);
  OtaPacket end{OtaPacketType::kEnd, 1, 0, 0xDEADBEEF, {}};
  EXPECT_EQ(end.wire_size(), 11u);
}

TEST(AccessPoint, PerfectLinkTransfersEverything) {
  Rng rng{5};
  OtaLink link{ota_link_params(), Dbm{-60.0}, rng};
  std::vector<std::uint8_t> image(10000, 0xAB);
  AccessPoint ap;
  auto outcome = ap.transfer(image, 7, link);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.data_packets, (image.size() + 59) / 60);
  EXPECT_EQ(outcome.retransmissions, 0u);
  EXPECT_GT(outcome.total_time.value(), 0.0);
  EXPECT_GT(outcome.node_energy.value(), 0.0);
}

TEST(AccessPoint, LossyLinkRetransmitsButSucceeds) {
  Rng rng{6};
  // ~3 dB above sensitivity: a few percent loss.
  Dbm rssi = lora::sx1276_sensitivity(8, Hertz::from_kilohertz(500.0)) + 3.5;
  OtaLink link{ota_link_params(), rssi, rng};
  std::vector<std::uint8_t> image(20000, 0x55);
  AccessPoint ap;
  auto outcome = ap.transfer(image, 7, link);
  EXPECT_TRUE(outcome.success);
  EXPECT_GT(outcome.retransmissions, 0u);
}

TEST(AccessPoint, HopelessLinkAborts) {
  Rng rng{7};
  OtaLink link{ota_link_params(), Dbm{-140.0}, rng};
  std::vector<std::uint8_t> image(5000, 0x11);
  AccessPoint ap;
  TransferPolicy policy;
  policy.max_retries = 5;
  auto outcome = ap.transfer(image, 7, link, policy);
  EXPECT_FALSE(outcome.success);
}

TEST(AccessPoint, TimeScalesWithImageSize) {
  AccessPoint ap;
  Rng rng1{8}, rng2{8};
  OtaLink link1{ota_link_params(), Dbm{-60.0}, rng1};
  OtaLink link2{ota_link_params(), Dbm{-60.0}, rng2};
  auto small = ap.transfer(std::vector<std::uint8_t>(5000, 1), 1, link1);
  auto large = ap.transfer(std::vector<std::uint8_t>(50000, 1), 1, link2);
  EXPECT_GT(large.total_time.value(), small.total_time.value() * 5.0);
}

TEST(UpdatePipeline, FullLoraFpgaUpdate) {
  Rng image_rng{42};
  auto image = fpga::generate_bitstream(fpga::lora_rx_design(8),
                                        fpga::DeviceSpec{}, image_rng);
  Rng link_rng{9};
  OtaLink link{ota_link_params(), Dbm{-85.0}, link_rng};
  FlashModel flash;
  mcu::Msp432 mcu = mcu::baseline_firmware();
  UpdatePlanner planner;
  auto report = planner.run(UpdatePlanner::prepare(image), UpdateTarget::kFpga,
                            3, link, flash, mcu);

  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.original_bytes, 579u * 1024u);
  // Compressed to roughly the paper's 99 kB.
  EXPECT_NEAR(static_cast<double>(report.compressed_bytes) / 1024.0, 99.0,
              15.0);
  // Decompression bounded by the paper's 450 ms.
  EXPECT_LT(report.decompress_time.milliseconds(), 460.0);
  // Reprogramming ~22 ms.
  EXPECT_NEAR(report.reprogram_time.milliseconds(), 22.0, 2.0);
  // The boot image in flash equals the original.
  EXPECT_EQ(flash.read(0, image.size()), image.data);
  // MCU block buffer was released.
  EXPECT_FALSE(mcu.sram_map().contains("ota_block"));
}

TEST(UpdatePipeline, EnergyInPaperBallpark) {
  // §5.3: ~6144 mJ for a LoRa FPGA update at a mid-range link.
  Rng image_rng{42};
  auto image = fpga::generate_bitstream(fpga::lora_rx_design(8),
                                        fpga::DeviceSpec{}, image_rng);
  Rng link_rng{10};
  OtaLink link{ota_link_params(), Dbm{-95.0}, link_rng};
  FlashModel flash;
  mcu::Msp432 mcu = mcu::baseline_firmware();
  UpdatePlanner planner;
  auto report = planner.run(UpdatePlanner::prepare(image), UpdateTarget::kFpga,
                            3, link, flash, mcu);
  ASSERT_TRUE(report.success);
  EXPECT_GT(report.total_energy.value(), 2000.0);
  EXPECT_LT(report.total_energy.value(), 12000.0);
}

TEST(UpdatePipeline, McuTargetUsesSelfFlash) {
  Rng image_rng{11};
  auto image = fpga::generate_mcu_program("mcu_fw", 78 * 1024, image_rng);
  Rng link_rng{12};
  OtaLink link{ota_link_params(), Dbm{-80.0}, link_rng};
  FlashModel flash;
  mcu::Msp432 mcu = mcu::baseline_firmware();
  UpdatePlanner planner;
  auto report = planner.run(UpdatePlanner::prepare(image), UpdateTarget::kMcu,
                            4, link, flash, mcu);
  ASSERT_TRUE(report.success);
  EXPECT_GT(report.reprogram_time.value(),
            fpga::ProgrammingModel{}.load_time(78 * 1024).value());
}

TEST(AmortizedPower, DailyUpdateMicrowatts) {
  // §5.3: daily OTA programming averages ~71 uW (LoRa) / ~27 uW (BLE).
  UpdateReport report;
  report.total_energy = Millijoules{6144.0};
  Milliwatts avg = amortized_update_power(report, Seconds{86400.0});
  EXPECT_NEAR(avg.microwatts(), 71.0, 1.0);
  EXPECT_THROW((void)amortized_update_power(report, Seconds{0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tinysdr::ota
