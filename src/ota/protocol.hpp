// Over-the-air programming protocol (paper §3.4, hardened).
//
// A LoRa access point updates tinySDR nodes sequentially: it announces a
// programming request naming device IDs and a wake time; an addressed node
// answers READY; the AP streams the compressed firmware as numbered DATA
// packets (60 B payloads, 8-chirp preambles — the paper's chosen balance of
// overhead vs range); a final END packet carries the image fingerprint and
// tells the node to reprogram itself.
//
// Beyond the paper's per-packet stop-and-wait, the transfer engine
// supports a windowed selective-ACK mode: the AP streams a window of DATA
// packets, then polls the node for a received-chunk bitmap and retransmits
// only the gaps. Retries use exponential backoff under a retry/deadline
// budget, the node checkpoints its transfer state to flash so a brownout
// mid-transfer resumes instead of restarting, and every outcome records
// the RNG seed plus failure-cause/recovery counters so a failed run can be
// replayed bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "channel/gilbert_elliott.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "lora/airtime.hpp"
#include "lora/params.hpp"
#include "mcu/msp432.hpp"
#include "ota/flash.hpp"
#include "sim/faults.hpp"

namespace tinysdr::ota {

/// Paper §5.3: 60-byte data packets, 8-chirp preamble.
inline constexpr std::size_t kDataPayload = 60;
inline constexpr int kOtaPreambleSymbols = 8;

/// The backbone link configuration used in the testbed evaluation:
/// SF8, BW 500 kHz, CR 4/6, 14 dBm.
[[nodiscard]] lora::LoraParams ota_link_params();

enum class OtaPacketType : std::uint8_t {
  kProgrammingRequest,
  kReady,
  kData,
  kDataAck,
  kSackQuery,  ///< AP asks for the window bitmap
  kSack,       ///< node's received-chunk bitmap for the window
  kEnd,
  kEndAck,
};

struct OtaPacket {
  OtaPacketType type = OtaPacketType::kData;
  std::uint16_t device_id = 0;
  std::uint16_t seq = 0;
  std::uint32_t image_crc32 = 0;          ///< END only
  std::vector<std::uint8_t> payload;      ///< DATA / SACK bitmap

  /// PHY payload size for airtime computation.
  [[nodiscard]] std::size_t wire_size() const;
};

/// Simulated LoRa link with RSSI-dependent packet loss.
///
/// Loss model: a packet is lost if its (analytic) packet error probability
/// fires. PER follows a logistic curve around the configuration's
/// sensitivity, with slope matching the measured LoRa waterfall (a few dB
/// from 10% to 90%). A Gilbert–Elliott burst process can be layered on
/// top for fault-injection campaigns. Exactly one loss draw is made per
/// delivery attempt (retransmissions redraw), so outcomes are reproducible
/// from the recorded seed.
class OtaLink {
 public:
  OtaLink(lora::LoraParams params, Dbm rssi, Rng rng)
      : params_(params), rssi_(rssi), rng_(rng) {}

  /// Seeded constructor; the seed is reported in UpdateOutcome so failed
  /// runs can be replayed.
  OtaLink(lora::LoraParams params, Dbm rssi, std::uint64_t seed)
      : params_(params), rssi_(rssi), rng_(seed), seed_(seed) {}

  [[nodiscard]] Dbm rssi() const { return rssi_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] double packet_error_rate(std::size_t payload_bytes) const;
  [[nodiscard]] Seconds airtime(std::size_t payload_bytes) const;

  /// Layer a Gilbert–Elliott burst-loss chain on top of the RSSI loss.
  void set_burst(const channel::GilbertElliottParams& params);
  [[nodiscard]] bool has_burst() const { return burst_.has_value(); }

  /// Attempt a delivery; returns true if the packet arrives intact.
  /// One loss draw per call — per delivery attempt.
  [[nodiscard]] bool deliver(std::size_t payload_bytes);

 private:
  lora::LoraParams params_;
  Dbm rssi_;
  Rng rng_;
  std::uint64_t seed_ = 0;
  std::optional<channel::GilbertElliottChannel> burst_;
};

/// Acknowledgement strategy for the data plane.
enum class AckMode : std::uint8_t {
  kStopAndWait,   ///< paper §3.4: per-packet ACK
  kSelectiveAck,  ///< windowed transfer with a received-chunk bitmap
};

/// Knobs of the transfer engine. The retransmission timeout (20 ms,
/// doubling per consecutive failure up to 2 s) and kMaxReassociations
/// are fixed.
struct TransferPolicy {
  AckMode mode = AckMode::kSelectiveAck;
  /// DATA packets streamed between bitmap polls (selective-ACK mode).
  std::size_t window = 16;
  /// Consecutive-failure budget per phase (association, data, end).
  std::size_t max_retries = 25;
  /// Whole-transfer wall-clock budget; 0 disables the deadline.
  Seconds deadline{0.0};
};

/// Re-association attempts after the data phase stalls (e.g. the node
/// rebooted and lost its session).
inline constexpr std::size_t kMaxReassociations = 2;

/// Protocol-level adversary hooks, queried by the transfer engine once per
/// matching protocol event. The default implementation attacks nothing;
/// concrete seeded attackers live in adversary:: (this interface sits in
/// ota so the protocol layer carries no dependency on the attack models).
///
/// The hardened protocol is expected to *survive* every hook: forged
/// replies fail session authentication and are discarded, truncated
/// payloads fail the length/CRC check, replays hit the bitmap dedup, and
/// rollback images are refused by the FirmwareStore version ratchet. Each
/// detection increments an UpdateOutcome counter plus an `adversary.ota.*`
/// metric, so campaigns can tell a survived attack from a benign failure.
class LinkAttacker {
 public:
  virtual ~LinkAttacker() = default;
  /// Jam this delivery: the packet was transmitted (airtime is spent) but
  /// never arrives. Queried once per packet that would have arrived.
  [[nodiscard]] virtual bool jam_packet(OtaPacketType /*type*/,
                                        std::size_t /*wire_bytes*/) {
    return false;
  }
  /// Race a forged ACK/SACK/END-ACK ahead of the node's reply. The AP
  /// authenticates replies against the session, so the forgery is
  /// detected and discarded — but the exchange is spent.
  [[nodiscard]] virtual bool forge_ack(OtaPacketType /*type*/) {
    return false;
  }
  /// The DATA payload for `seq` arrives truncated (fails the node's
  /// length check and is dropped).
  [[nodiscard]] virtual bool truncate_chunk(std::uint16_t /*seq*/) {
    return false;
  }
  /// Replay a captured copy of the DATA packet for `seq` at the node
  /// (dropped by the received-chunk bitmap dedup).
  [[nodiscard]] virtual bool replay_chunk(std::uint16_t /*seq*/) {
    return false;
  }
};

/// Why a transfer (or the wider update) failed.
enum class UpdateFailure : std::uint8_t {
  kNone,
  kAssociation,    ///< request/ready never completed
  kRetryBudget,    ///< consecutive-failure budget exhausted in data phase
  kDeadline,       ///< transfer deadline exceeded
  kEndHandshake,   ///< END/END-ACK never completed
  kStreamCorrupt,  ///< staged stream failed the END fingerprint check
  kDecodeFailed,   ///< block decompression failed
  kImageVerify,    ///< slot write/fingerprint verification failed
  kRejectedRollback,  ///< node refused a version-rollback image (survived)
};

[[nodiscard]] const char* to_string(UpdateFailure failure);

/// Result of updating a single node.
struct UpdateOutcome {
  bool success = false;
  UpdateFailure failure = UpdateFailure::kNone;
  std::uint64_t link_seed = 0;     ///< replay handle for this run
  Seconds total_time{0.0};         ///< request to reprogram-complete
  Seconds airtime{0.0};            ///< RF on-air time
  std::size_t data_packets = 0;    ///< unique chunks delivered
  std::size_t retransmissions = 0;
  std::size_t ack_packets = 0;     ///< ACK/SACK exchanges completed
  std::size_t duplicates_dropped = 0;
  std::size_t corrupted_dropped = 0;
  std::size_t backoff_events = 0;
  std::size_t node_reboots = 0;    ///< brownouts/watchdog resets survived
  std::size_t session_resumes = 0; ///< resumed from flash-persisted state
  std::size_t reassociations = 0;
  std::size_t repair_rounds = 0;   ///< END-verify failures repaired by rescan
  std::size_t flash_write_errors = 0;  ///< chunk programs that failed verify
  // Detected-and-survived attack events (see LinkAttacker).
  std::size_t jammed_packets = 0;        ///< deliveries destroyed by a jammer
  std::size_t forged_acks_discarded = 0; ///< forged replies failing auth
  std::size_t truncated_dropped = 0;     ///< truncated DATA failing length/CRC
  std::size_t replays_dropped = 0;       ///< replayed DATA deduped by bitmap
  Millijoules node_energy{0.0};    ///< backbone radio + MCU at the node
  /// Per-chunk transmission counts (sim instrumentation; index = seq).
  std::vector<std::uint16_t> sends_per_chunk;
};

/// The node half of the OTA protocol: receives chunks into the staging
/// region of the flash as they arrive (the paper writes straight to flash
/// because the LoRa radio outdraws the MCU), keeps the received-chunk
/// bitmap, checkpoints the session to flash so a brownout resumes instead
/// of restarting, and verifies the staged stream fingerprint at END.
class NodeAgent {
 public:
  static constexpr std::size_t kStagingBase = 0x400000;
  static constexpr std::size_t kStagingCapacity = 0x100000;
  static constexpr std::size_t kSessionSector =
      FlashModel::kCapacity - FlashModel::kSectorSize;

  /// The MCU watchdog period a session arms.
  static constexpr Seconds kWatchdogTimeout{30.0};

  NodeAgent(std::uint16_t device_id, FlashModel& flash,
            sim::FaultInjector* faults = nullptr,
            mcu::Msp432* mcu = nullptr);

  /// Handle a programming request. Starts a fresh session (erasing the
  /// staging region) or resumes a matching persisted one. Returns true if
  /// the session was resumed from flash.
  bool begin_session(std::uint32_t session_id, std::size_t stream_bytes);

  enum class RxStatus : std::uint8_t {
    kStored,     ///< chunk programmed and verified
    kDuplicate,  ///< already had it (bitmap dedup)
    kCorrupt,    ///< payload CRC failed; dropped
    kFlashError, ///< program/read-back verify failed; not marked received
    kNoSession,  ///< node has no active session (e.g. lost state)
  };
  RxStatus receive_chunk(std::uint16_t seq,
                         std::span<const std::uint8_t> payload,
                         bool corrupted = false);

  [[nodiscard]] bool has_session() const { return session_active_; }
  [[nodiscard]] bool has_chunk(std::size_t seq) const;
  [[nodiscard]] std::size_t chunks_received() const { return received_; }
  [[nodiscard]] std::size_t total_chunks() const { return total_chunks_; }
  [[nodiscard]] bool complete() const {
    return session_active_ && received_ == total_chunks_;
  }
  [[nodiscard]] std::size_t bytes_received() const { return bytes_received_; }

  /// Received-chunk bitmap for seqs [base, base + count), packed LSB-first
  /// — the payload of a kSack packet.
  [[nodiscard]] std::vector<std::uint8_t> window_bitmap(
      std::size_t base, std::size_t count) const;

  /// Checkpoint the session (bitmap) to the session sector in flash.
  void persist_session();
  /// Drop the session record (after a successful update).
  void clear_session();

  /// Brownout: RAM state is lost, flash survives. The node goes offline
  /// until `poll_boot` brings it back up.
  void reboot();
  /// Boot completes: restore the session from the flash checkpoint if one
  /// matches. Returns true if the node is (now) online.
  bool poll_boot();
  [[nodiscard]] bool online() const { return online_; }
  [[nodiscard]] std::size_t reboot_count() const { return reboots_; }
  [[nodiscard]] std::size_t resume_count() const { return resumes_; }
  [[nodiscard]] std::size_t flash_write_errors() const {
    return flash_write_errors_;
  }

  /// Advance simulated time at the node (drives the watchdog).
  void advance_time(Seconds elapsed);

  /// END check: read the staged stream back and compare fingerprints.
  [[nodiscard]] bool verify_stream(std::uint32_t crc32) const;

  [[nodiscard]] FlashModel& flash() { return *flash_; }
  [[nodiscard]] sim::FaultInjector* faults() const { return faults_; }

 private:
  void install_flash_hooks();
  void mark_chunk(std::size_t seq);
  /// Forget the session held in RAM (the flash checkpoint stays).
  void drop_session();

  std::uint16_t device_id_;
  FlashModel* flash_;
  sim::FaultInjector* faults_;
  mcu::Msp432* mcu_;

  bool online_ = true;
  bool session_active_ = false;
  std::uint32_t session_id_ = 0;
  std::size_t stream_bytes_ = 0;
  std::size_t total_chunks_ = 0;
  std::size_t received_ = 0;
  std::size_t bytes_received_ = 0;
  std::vector<std::uint8_t> bitmap_;  ///< 1 bit per chunk, LSB-first

  std::size_t reboots_ = 0;
  std::size_t resumes_ = 0;
  std::size_t flash_write_errors_ = 0;
};

/// The AP side: drives one node through a full firmware transfer.
class AccessPoint {
 public:
  /// Transfer `compressed_image` to device `device_id` over `link`.
  /// When `node` is null an internal ideal node (no flash, no faults) is
  /// simulated; pass a NodeAgent to exercise flash writes, brownout
  /// resume and injected faults. An optional LinkAttacker subjects the
  /// exchange to protocol-level attacks the engine must survive.
  [[nodiscard]] UpdateOutcome transfer(
      const std::vector<std::uint8_t>& compressed_image,
      std::uint16_t device_id, OtaLink& link,
      const TransferPolicy& policy = {}, NodeAgent* node = nullptr,
      sim::FaultInjector* faults = nullptr,
      LinkAttacker* attacker = nullptr) const;
};

}  // namespace tinysdr::ota
