// TTN-compatible LoRa MAC layer (paper §4.1 "LoRa MAC Layer").
//
// The paper ports The Things Network's Arduino MAC to the MCU and supports
// both activation methods: OTAA (join procedure assigns a device address)
// and ABP (address hard-coded). This module implements the LoRaWAN-style
// uplink frame format (MHDR | DevAddr | FCtrl | FCnt | FPort | payload |
// MIC), frame counters, both activation flows, and the RX1/RX2 receive-
// window schedule whose feasibility Table 4's switching delays establish.
//
// Frame integrity uses real AES-CMAC (common/aes.hpp, validated against
// the FIPS-197 / RFC 4493 vectors), truncated to the 32-bit LoRaWAN MIC.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "radio/timing.hpp"

namespace tinysdr::lora {

using DevAddr = std::uint32_t;
using AppKey = std::array<std::uint8_t, 16>;

enum class MacMessageType : std::uint8_t {
  kJoinRequest = 0x00,
  kJoinAccept = 0x20,
  kUnconfirmedUp = 0x40,
  kUnconfirmedDown = 0x60,
  kConfirmedUp = 0x80,
  kConfirmedDown = 0xA0,
};

struct MacFrame {
  MacMessageType type = MacMessageType::kUnconfirmedUp;
  DevAddr dev_addr = 0;
  std::uint8_t fctrl = 0;
  std::uint16_t fcnt = 0;
  std::uint8_t fport = 1;
  std::vector<std::uint8_t> payload;
  std::uint32_t mic = 0;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static std::optional<MacFrame> parse(
      std::span<const std::uint8_t> bytes);
};

/// AES-CMAC MIC over the frame contents (LoRaWAN-style 32-bit truncation).
[[nodiscard]] std::uint32_t compute_mic(std::span<const std::uint8_t> frame,
                                        const AppKey& key);

/// Device-side MAC state machine.
class MacDevice {
 public:
  /// OTAA: starts unjoined; join() derives the session.
  static MacDevice otaa(std::uint64_t dev_eui, AppKey app_key);

  [[nodiscard]] bool joined() const { return joined_; }
  [[nodiscard]] DevAddr dev_addr() const { return dev_addr_; }
  [[nodiscard]] std::uint16_t uplink_counter() const { return fcnt_up_; }

  /// Build a join-request frame.
  [[nodiscard]] std::vector<std::uint8_t> join_request();
  /// Process a join-accept; assigns the dynamic address.
  /// @returns false if the frame is malformed or its MIC fails.
  bool handle_join_accept(std::span<const std::uint8_t> frame);

  /// Build an uplink data frame; bumps the frame counter.
  /// @throws std::logic_error if not joined.
  [[nodiscard]] std::vector<std::uint8_t> uplink(
      std::span<const std::uint8_t> payload, std::uint8_t fport = 1,
      bool confirmed = false);

 private:
  MacDevice() = default;
  bool joined_ = false;
  DevAddr dev_addr_ = 0;
  std::uint64_t dev_eui_ = 0;
  AppKey key_{};
  std::uint16_t fcnt_up_ = 0;
  std::uint16_t dev_nonce_ = 0;
};

/// Network-server-side counterpart (the TTN side): answers joins and
/// validates uplinks.
class MacNetwork {
 public:
  explicit MacNetwork(AppKey app_key) : app_key_(app_key) {}

  /// Process a join request; returns the join-accept frame.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> handle_join(
      std::span<const std::uint8_t> frame);

  /// Validate an uplink (MIC + monotonic counter).
  [[nodiscard]] std::optional<MacFrame> handle_uplink(
      std::span<const std::uint8_t> frame);

  [[nodiscard]] std::size_t joined_devices() const { return next_addr_ - 1; }

 private:
  AppKey app_key_;
  DevAddr next_addr_ = 1;
  std::vector<std::pair<DevAddr, std::uint16_t>> last_counter_;
};

/// LoRaWAN class-A receive windows: RX1 opens 1 s after uplink end, RX2 at
/// 2 s. Checks against the radio switching delays (Table 4): the turnaround
/// must fit inside the window-opening delay.
struct ReceiveWindows {
  Seconds rx1_delay{1.0};
  Seconds rx2_delay{2.0};

  [[nodiscard]] bool feasible(const radio::TimingModel& timing) const {
    // The device must switch TX->RX (and possibly retune) before RX1 opens.
    Seconds turnaround = timing.tx_to_rx + timing.frequency_switch;
    return turnaround < rx1_delay;
  }
};

}  // namespace tinysdr::lora
