// 13-bit I/Q sample words of the AT86RF215's LVDS interface (paper Fig. 4).
//
// The radio emits 32-bit serial words at 4 Mwords/s (128 Mbps over a 64 MHz
// DDR clock):
//
//   [ I_SYNC(2) | I_DATA(13) | CTRL(1) | Q_SYNC(2) | Q_DATA(13) | CTRL(1) ]
//
// What the simulator keeps of that interface is the decoded word and the
// signed 13-bit sample encoding, which the FPGA's sample FIFO and the
// microSD recorder's 26-bit packing are built on.
#pragma once

#include <cstdint>

namespace tinysdr::radio {

/// One decoded I/Q word.
struct IqWord {
  std::int32_t i = 0;      ///< signed 13-bit I sample
  std::int32_t q = 0;      ///< signed 13-bit Q sample
  bool i_ctrl = false;     ///< control bit following I data
  bool q_ctrl = false;     ///< control bit following Q data
};

/// Encode a signed sample (-4096..4095) to 13-bit two's complement.
[[nodiscard]] std::uint16_t encode_sample13(std::int32_t value);
/// Decode 13-bit two's complement to a signed sample.
[[nodiscard]] std::int32_t decode_sample13(std::uint16_t raw);

}  // namespace tinysdr::radio
