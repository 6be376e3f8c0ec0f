#include "radio/lvds.hpp"

#include <stdexcept>

namespace tinysdr::radio {

namespace {
constexpr std::int32_t kMax13 = 4095;
constexpr std::int32_t kMin13 = -4096;
}  // namespace

std::uint16_t encode_sample13(std::int32_t value) {
  if (value < kMin13 || value > kMax13)
    throw std::out_of_range("encode_sample13: value outside 13-bit range");
  return static_cast<std::uint16_t>(value & 0x1FFF);
}

std::int32_t decode_sample13(std::uint16_t raw) {
  std::int32_t v = raw & 0x1FFF;
  if (v & 0x1000) v -= 0x2000;  // sign-extend bit 12
  return v;
}

}  // namespace tinysdr::radio
