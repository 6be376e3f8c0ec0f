#include "common/bitio.hpp"

#include <gtest/gtest.h>

namespace tinysdr {
namespace {

TEST(BitWriter, MsbFirstOrder) {
  BitWriter w;
  w.push_bits_msb_first(0b101, 3);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_TRUE(w.bits()[0]);
  EXPECT_FALSE(w.bits()[1]);
  EXPECT_TRUE(w.bits()[2]);
}

TEST(BitWriter, LsbFirstOrder) {
  BitWriter w;
  w.push_bits_lsb_first(0b101, 3);
  EXPECT_TRUE(w.bits()[0]);
  EXPECT_FALSE(w.bits()[1]);
  EXPECT_TRUE(w.bits()[2]);
  // For the palindrome 101 both orders agree; use asymmetric value too.
  BitWriter w2;
  w2.push_bits_lsb_first(0b001, 3);
  EXPECT_TRUE(w2.bits()[0]);
  EXPECT_FALSE(w2.bits()[1]);
  EXPECT_FALSE(w2.bits()[2]);
}

TEST(BitWriter, RejectsBadCounts) {
  BitWriter w;
  EXPECT_THROW(w.push_bits_msb_first(0, -1), std::invalid_argument);
  EXPECT_THROW(w.push_bits_lsb_first(0, 65), std::invalid_argument);
}

}  // namespace
}  // namespace tinysdr
