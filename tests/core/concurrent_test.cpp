#include "core/concurrent.hpp"

#include <gtest/gtest.h>

namespace tinysdr::core {
namespace {

lora::LoraParams bw125() {
  return lora::LoraParams{8, Hertz::from_kilohertz(125.0)};
}
lora::LoraParams bw250() {
  return lora::LoraParams{8, Hertz::from_kilohertz(250.0)};
}

TEST(ConcurrentReceiver, RejectsNonOrthogonalBranches) {
  EXPECT_THROW(ConcurrentReceiver({bw125(), bw125()}),
               std::invalid_argument);
  EXPECT_THROW(ConcurrentReceiver({bw125()}), std::invalid_argument);
  EXPECT_NO_THROW(ConcurrentReceiver({bw125(), bw250()}));
}

TEST(ConcurrentReceiver, DesignUsesSeventeenPercent) {
  ConcurrentReceiver rx{{bw125(), bw250()}};
  fpga::DeviceSpec dev;
  EXPECT_NEAR(rx.design().utilization(dev) * 100.0, 17.0, 1.0);
}

TEST(ConcurrentReceiver, PlatformPowerMatches207mW) {
  ConcurrentReceiver rx{{bw125(), bw250()}};
  EXPECT_NEAR(rx.platform_power().value(), 207.0, 6.0);
}

}  // namespace
}  // namespace tinysdr::core
