#include "radio/frontend.hpp"

#include <gtest/gtest.h>

namespace tinysdr::radio {
namespace {

TEST(FrontendSpecs, PaperLimits) {
  EXPECT_NEAR(se2435l_spec().max_output.value(), 30.0, 1e-9);
  EXPECT_NEAR(sky66112_spec().max_output.value(), 27.0, 1e-9);
  EXPECT_DOUBLE_EQ(se2435l_spec().sleep_current_ua, 1.0);
  EXPECT_DOUBLE_EQ(sky66112_spec().bypass_current_ua, 280.0);
}

}  // namespace
}  // namespace tinysdr::radio
