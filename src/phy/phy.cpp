#include "phy/phy.hpp"

#include <bit>

namespace tinysdr::phy {

std::string_view protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kLora: return "lora";
    case Protocol::kBle: return "ble";
    case Protocol::kZigbee: return "zigbee";
    case Protocol::kSigfox: return "sigfox";
    case Protocol::kNbiot: return "nbiot";
  }
  return "unknown";
}

FrameResult score_packet(std::span<const std::uint8_t> reference,
                         std::span<const std::uint8_t> decoded,
                         bool decoded_ok) {
  FrameResult r;
  r.bits = reference.size() * 8;
  std::size_t common = std::min(reference.size(), decoded.size());
  for (std::size_t i = 0; i < common; ++i)
    r.bit_errors += static_cast<std::uint64_t>(
        std::popcount(static_cast<unsigned>(reference[i] ^ decoded[i])));
  // Length mismatch: every byte not covered by the decode is fully errored.
  if (reference.size() > common)
    r.bit_errors += (reference.size() - common) * 8;
  r.frame_ok = decoded_ok && decoded.size() == reference.size() &&
               r.bit_errors == 0;
  return r;
}

FrameResult score_lost_packet(std::span<const std::uint8_t> reference) {
  FrameResult r;
  r.bits = reference.size() * 8;
  r.bit_errors = r.bits;
  r.frame_ok = false;
  return r;
}

}  // namespace tinysdr::phy
