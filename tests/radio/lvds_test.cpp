#include "radio/lvds.hpp"

#include <gtest/gtest.h>

namespace tinysdr::radio {
namespace {

TEST(Sample13, EncodeDecodeRoundTrip) {
  for (std::int32_t v : {-4096, -1, 0, 1, 2047, 4095}) {
    EXPECT_EQ(decode_sample13(encode_sample13(v)), v);
  }
}

TEST(Sample13, RejectsOutOfRange) {
  EXPECT_THROW((void)encode_sample13(4096), std::out_of_range);
  EXPECT_THROW((void)encode_sample13(-4097), std::out_of_range);
}

}  // namespace
}  // namespace tinysdr::radio
