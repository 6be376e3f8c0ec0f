// CRC implementations used across the platform:
//  - CRC-16/CCITT for LoRa payloads and the OTA update protocol
//  - CRC-24 (Bluetooth) as an LFSR, bit-exact to the BT core spec
//  - CRC-32 (IEEE 802.3) for OTA stream and firmware-image fingerprints
//
// CRC-16 and CRC-32 run slice-by-8: eight bytes per step through eight
// 256-entry tables, with a byte-at-a-time tail. The tables are built at
// compile time from the bitwise shift loops, so both functions stay
// usable in constant expressions and give the bitwise results exactly.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace tinysdr {

namespace detail {

template <typename T>
using CrcTables = std::array<std::array<T, 256>, 8>;

/// Row 0, entry k: the register after shifting byte k through the
/// MSB-first CRC-16/CCITT loop from zero. Row j: the same byte followed
/// by j zero bytes.
inline constexpr CrcTables<std::uint16_t> kCrc16CcittTables = [] {
  CrcTables<std::uint16_t> t{};
  for (unsigned k = 0; k < 256; ++k) {
    auto crc = static_cast<std::uint16_t>(k << 8);
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 0x8000) {
        crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
      } else {
        crc = static_cast<std::uint16_t>(crc << 1);
      }
    }
    t[0][k] = crc;
  }
  for (std::size_t j = 1; j < 8; ++j)
    for (unsigned k = 0; k < 256; ++k)
      t[j][k] = static_cast<std::uint16_t>((t[j - 1][k] << 8) ^
                                           t[0][t[j - 1][k] >> 8]);
  return t;
}();

/// Row 0, entry k: the register after shifting byte k through the
/// reflected (LSB-first) CRC-32 loop from zero. Row j: the same byte
/// followed by j zero bytes.
inline constexpr CrcTables<std::uint32_t> kCrc32IeeeTables = [] {
  CrcTables<std::uint32_t> t{};
  for (std::uint32_t k = 0; k < 256; ++k) {
    std::uint32_t crc = k;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    t[0][k] = crc;
  }
  for (std::size_t j = 1; j < 8; ++j)
    for (std::uint32_t k = 0; k < 256; ++k)
      t[j][k] = (t[j - 1][k] >> 8) ^ t[0][t[j - 1][k] & 0xFFu];
  return t;
}();

}  // namespace detail

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) — used by LoRa payload CRC
/// and by our OTA data packets.
[[nodiscard]] constexpr std::uint16_t crc16_ccitt(
    std::span<const std::uint8_t> data, std::uint16_t init = 0xFFFF) {
  const auto& t = detail::kCrc16CcittTables;
  std::uint16_t crc = init;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    crc = static_cast<std::uint16_t>(
        t[7][(crc >> 8) ^ p[0]] ^ t[6][(crc & 0xFFu) ^ p[1]] ^ t[5][p[2]] ^
        t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]]);
  }
  for (; n > 0; --n, ++p)
    crc = static_cast<std::uint16_t>((crc << 8) ^ t[0][(crc >> 8) ^ *p]);
  return crc;
}

/// Bluetooth CRC-24.
///
/// Polynomial x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1, LFSR initialised
/// to 0x555555 for advertising packets; PDU bytes enter LSB first
/// (BT Core Spec v5.1, Vol 6 Part B §3.1.1).
class BleCrc24 {
 public:
  explicit constexpr BleCrc24(std::uint32_t init = 0x555555)
      : state_(init & 0xFFFFFF) {}

  constexpr void feed_bit(bool bit) {
    // MSB of the 24-bit register is position 23.
    bool msb = (state_ >> 23) & 1u;
    bool fb = msb != bit;
    state_ = (state_ << 1) & 0xFFFFFF;
    if (fb) {
      // Taps per the polynomial above (excluding x^24 which is the feedback).
      state_ ^= 0x00065B;  // bits 10,9,6,4,3,1,0
    }
  }

  constexpr void feed_byte_lsb_first(std::uint8_t byte) {
    for (int bit = 0; bit < 8; ++bit) feed_bit((byte >> bit) & 1u);
  }

  constexpr void feed(std::span<const std::uint8_t> data) {
    for (std::uint8_t b : data) feed_byte_lsb_first(b);
  }

  /// Final CRC register value (24 bits).
  [[nodiscard]] constexpr std::uint32_t value() const { return state_; }

  /// The three CRC bytes as transmitted over the air (MSB of the register
  /// first, each bit sent as-is).
  [[nodiscard]] constexpr std::uint32_t transmitted() const { return state_; }

 private:
  std::uint32_t state_;
};

/// Convenience: CRC-24 over a complete PDU.
[[nodiscard]] constexpr std::uint32_t ble_crc24(
    std::span<const std::uint8_t> pdu, std::uint32_t init = 0x555555) {
  BleCrc24 crc{init};
  crc.feed(pdu);
  return crc.value();
}

/// CRC-32 (IEEE 802.3, reflected) — used to fingerprint firmware images in
/// the OTA flash store.
[[nodiscard]] constexpr std::uint32_t crc32_ieee(
    std::span<const std::uint8_t> data, std::uint32_t init = 0xFFFFFFFF) {
  const auto& t = detail::kCrc32IeeeTables;
  std::uint32_t crc = init;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][crc & 0xFFu] ^ t[6][(crc >> 8) & 0xFFu] ^
          t[5][(crc >> 16) & 0xFFu] ^ t[4][crc >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; --n, ++p) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return ~crc;
}

}  // namespace tinysdr
