// Bit writer used by the BLE packet builder, the Sigfox framer and the
// built-in modem. Both MSB-first and LSB-first orders appear in the
// platform (Sigfox frames are MSB-first, BLE goes over the air LSB-first).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace tinysdr {

/// Append-only bit vector with explicit bit order per push.
class BitWriter {
 public:
  void push_bit(bool bit) { bits_.push_back(bit); }

  void push_bits_msb_first(std::uint64_t value, int count) {
    if (count < 0 || count > 64)
      throw std::invalid_argument("push_bits_msb_first: bad count");
    for (int i = count - 1; i >= 0; --i) bits_.push_back((value >> i) & 1u);
  }

  void push_bits_lsb_first(std::uint64_t value, int count) {
    if (count < 0 || count > 64)
      throw std::invalid_argument("push_bits_lsb_first: bad count");
    for (int i = 0; i < count; ++i) bits_.push_back((value >> i) & 1u);
  }

  void push_byte_lsb_first(std::uint8_t byte) {
    push_bits_lsb_first(byte, 8);
  }

  [[nodiscard]] const std::vector<bool>& bits() const { return bits_; }
  [[nodiscard]] std::size_t size() const { return bits_.size(); }

 private:
  std::vector<bool> bits_;
};

}  // namespace tinysdr
