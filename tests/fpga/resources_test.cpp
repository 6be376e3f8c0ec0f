#include "fpga/resources.hpp"

#include <gtest/gtest.h>

namespace tinysdr::fpga {
namespace {

TEST(Table6, LoraTxIs976LutsForEverySf) {
  // Table 6: the modulator cost does not depend on SF.
  Design d = lora_tx_design();
  EXPECT_EQ(d.total_luts(), 976u);
  DeviceSpec dev;
  EXPECT_NEAR(d.utilization(dev), 0.0407, 0.001);  // "4%"
}

class Table6RxSweep
    : public ::testing::TestWithParam<std::pair<int, std::uint32_t>> {};

TEST_P(Table6RxSweep, DemodulatorLutsMatchTable6) {
  auto [sf, expected] = GetParam();
  EXPECT_EQ(lora_rx_design(sf).total_luts(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllSf, Table6RxSweep,
    ::testing::Values(std::pair{6, 2656u}, std::pair{7, 2670u},
                      std::pair{8, 2700u}, std::pair{9, 2742u},
                      std::pair{10, 2786u}, std::pair{11, 2794u},
                      std::pair{12, 2818u}));

TEST(Table6, RxUtilizationPercentages) {
  DeviceSpec dev;
  // Paper quotes 10-11%; with the 24k-LUT denominator the exact counts
  // land at 11.07-11.74%.
  EXPECT_NEAR(lora_rx_design(6).utilization(dev) * 100.0, 11.0, 0.8);
  EXPECT_NEAR(lora_rx_design(8).utilization(dev) * 100.0, 11.25, 0.5);
  EXPECT_NEAR(lora_rx_design(12).utilization(dev) * 100.0, 11.74, 0.8);
}

TEST(BleDesign, ThreePercentUtilization) {
  DeviceSpec dev;
  EXPECT_NEAR(ble_tx_design().utilization(dev) * 100.0, 3.0, 0.2);
}

TEST(ConcurrentDesign, SeventeenPercentForDualSf8) {
  DeviceSpec dev;
  double util = concurrent_rx_design({8, 8}).utilization(dev) * 100.0;
  EXPECT_NEAR(util, 17.0, 1.0);
}

TEST(ConcurrentDesign, SharedFrontEndCheaperThanTwoFullDemods) {
  std::uint32_t dual = concurrent_rx_design({8, 8}).total_luts();
  std::uint32_t two_full = 2 * lora_rx_design(8).total_luts();
  EXPECT_LT(dual, two_full);
}

TEST(Design, EverythingFitsTogether) {
  // The paper: "sufficient resources to support multiple configurations of
  // LoRa and still leave space for other custom operations."
  DeviceSpec dev;
  Design combo{"combo"};
  combo.add(Block::kIqDeserializer)
      .add(Block::kIqSerializer)
      .add(Block::kFir14)
      .add(Block::kChirpGenerator)
      .add(Block::kLoraPacketGen);
  for (int sf = 6; sf <= 12; ++sf) combo.add_fft(sf);
  EXPECT_TRUE(combo.fits(dev));
  EXPECT_LT(combo.utilization(dev), 0.5);
}

TEST(Design, FftRejectsBadSf) {
  EXPECT_THROW((void)fft_luts(5), std::invalid_argument);
  EXPECT_THROW((void)fft_luts(13), std::invalid_argument);
  Design d{"x"};
  EXPECT_THROW(d.add_fft(13), std::invalid_argument);
}

TEST(Design, BramAccountingAndOverflow) {
  DeviceSpec dev;
  Design d{"hog"};
  d.add_bram_bytes(dev.bram_bytes + 1);
  EXPECT_FALSE(d.fits(dev));
}

TEST(Design, BreakdownSumsToTotal) {
  Design d = lora_rx_design(9);
  std::uint32_t sum = 0;
  for (const auto& [name, luts] : d.breakdown()) {
    EXPECT_FALSE(name.empty());
    sum += luts;
  }
  EXPECT_EQ(sum, d.total_luts());
}

TEST(Design, AddRejectsNonPositiveCount) {
  Design d{"x"};
  EXPECT_THROW(d.add(Block::kFir14, 0), std::invalid_argument);
  EXPECT_THROW(d.add_fft(8, -1), std::invalid_argument);
}

}  // namespace
}  // namespace tinysdr::fpga
