#include "phy/ble_phy.hpp"

#include <array>
#include <cmath>

#include "ble/packet.hpp"

namespace tinysdr::phy {

namespace {

/// Beacons go out on advertising channel 37 from a fixed advertiser.
constexpr int kAdvChannel = 37;
constexpr std::array<std::uint8_t, 6> kAdvAddress{0x12, 0x34, 0x56,
                                                  0x78, 0x9A, 0xBC};

std::vector<bool> air_bits(std::span<const std::uint8_t> payload) {
  ble::AdvPacket packet;
  packet.adv_address = kAdvAddress;
  packet.adv_data.assign(payload.begin(), payload.end());
  return ble::assemble_air_bits(packet, kAdvChannel);
}

}  // namespace

void BleBeaconTx::modulate(std::span<const std::uint8_t> payload,
                           dsp::Samples& out) const {
  auto wave = modulator_.modulate(air_bits(payload));
  out.insert(out.end(), wave.begin(), wave.end());
}

FrameResult BleBeaconRx::demodulate(
    std::span<const dsp::Complex> iq,
    std::span<const std::uint8_t> reference) const {
  auto reference_bits = air_bits(reference);
  auto bits = demod_.demodulate(iq, demod_.estimate_timing(iq));
  double ber = ble::aligned_ber(reference_bits, bits);
  FrameResult r;
  r.bits = reference_bits.size();
  r.bit_errors = static_cast<std::uint64_t>(
      std::llround(ber * static_cast<double>(reference_bits.size())));
  r.frame_ok = r.bit_errors == 0;
  return r;
}

}  // namespace tinysdr::phy
