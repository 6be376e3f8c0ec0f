// End-to-end OTA update pipeline (paper §3.4 + §5.3).
//
// AP side: split the firmware image into 30 kB blocks, compress each with
// the LZO-class codec, stream over the backbone link. Node side: write
// compressed data to the dedicated flash as it arrives ("considering the
// LoRa radio takes more power than the MCU, we immediately write the data
// to flash"), then with the radio off, decompress block by block through a
// 30 kB SRAM buffer, write the boot image back to flash, and reprogram the
// FPGA (22 ms quad-SPI load) or MCU.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fpga/bitstream.hpp"
#include "fpga/programming.hpp"
#include "mcu/msp432.hpp"
#include "ota/flash.hpp"
#include "ota/lzo.hpp"
#include "ota/protocol.hpp"
#include "power/ledger.hpp"
#include "sim/faults.hpp"

namespace tinysdr::ota {

enum class UpdateTarget { kFpga, kMcu };

struct UpdateReport {
  bool success = false;
  UpdateFailure failure = UpdateFailure::kNone;
  UpdateTarget target = UpdateTarget::kFpga;
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;
  UpdateOutcome transfer;          ///< radio-phase stats
  Seconds decompress_time{0.0};
  Seconds flash_time{0.0};
  Seconds reprogram_time{0.0};     ///< FPGA load / MCU self-flash
  Millijoules total_energy{0.0};   ///< node-side, whole update
  Seconds total_time{0.0};
  bool rolled_back = false;        ///< reverted to the golden image
  std::optional<Slot> slot;        ///< A/B slot the new image landed in

  [[nodiscard]] double compression_ratio() const {
    return original_bytes == 0
               ? 0.0
               : static_cast<double>(compressed_bytes) /
                     static_cast<double>(original_bytes);
  }
};

/// Optional hardening knobs for an update run. Defaults reproduce the
/// paper's pipeline (ideal node, legacy single-image flash layout).
struct UpdateOptions {
  TransferPolicy policy{};
  /// Fault injector wired into both the link-level transfer and the
  /// node's flash hooks.
  sim::FaultInjector* faults = nullptr;
  /// When set, the decoded image is written to the standby A/B slot with
  /// fingerprint verification, and a failed verify (or decode) rolls the
  /// node back to the golden image. When null, the image is written to
  /// offset 0 the way the original pipeline did.
  FirmwareStore* store = nullptr;
  /// Protocol-level adversary driven through the transfer engine's
  /// LinkAttacker hooks (forged ACKs, jamming, truncation, replay).
  LinkAttacker* attacker = nullptr;
  /// Monotonic firmware version carried by the pushed image. Checked
  /// against the store's anti-rollback floor at activation; pushing an
  /// older version fails with UpdateFailure::kRejectedRollback while the
  /// node keeps running its current image.
  std::uint32_t image_version = 0;
};

/// What the access point sends for one firmware image. The AP compresses
/// a bitstream once and pushes the same bytes to the whole fleet, so a
/// campaign builds one AirImage and shares it read-only across nodes.
struct AirImage {
  /// frame_blocks() of the compressed 30 kB blocks.
  std::vector<std::uint8_t> stream;
  /// The image bytes: what `stream` decodes to (prepare() checks it).
  std::vector<std::uint8_t> original;
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;  ///< payload bytes, headers excluded
  std::uint32_t image_crc32 = 0;     ///< fingerprint of the decoded image
};

/// Runs a complete OTA update of one node over a given link.
class UpdatePlanner {
 public:
  UpdatePlanner() = default;

  /// MCU decompression throughput (bytes of *output* per second). The
  /// paper: decompressing a full image takes at most 450 ms; miniLZO on a
  /// 48 MHz M4F streams roughly 1.3 MB/s.
  static constexpr double kDecompressBytesPerSecond = 1.32e6;

  /// AP side: block-compress and frame an image for transfer. Decodes the
  /// framed stream once and keeps the image beside it as `original`.
  /// @throws std::logic_error if that decode does not give the image back.
  [[nodiscard]] static AirImage prepare(const fpga::FirmwareImage& image);

  /// Node side: decode the staged stream, flash the image to the legacy
  /// offset or the standby A/B slot, and reprogram. The decode runs only
  /// when it could change the answer: see staged_image().
  [[nodiscard]] UpdateReport run(const AirImage& air, UpdateTarget target,
                                 std::uint16_t device_id, OtaLink& link,
                                 FlashModel& flash, mcu::Msp432& mcu,
                                 const UpdateOptions& options = {}) const;

  /// One-off update: prepare() then run(). perfbench's ota_fleet workload
  /// times this entry; campaigns call prepare() once instead.
  [[nodiscard]] UpdateReport run(const fpga::FirmwareImage& image,
                                 UpdateTarget target, std::uint16_t device_id,
                                 OtaLink& link, FlashModel& flash,
                                 mcu::Msp432& mcu,
                                 const UpdateOptions& options = {}) const {
    return run(prepare(image), target, device_id, link, flash, mcu, options);
  }
};

/// The image a node decodes from the `staged` bytes of its flash. Staged
/// bytes equal to `air.stream` over its full length decode to
/// `air.original` (prepare() checked the round trip), so that is returned
/// without a decode. Any other content (a flash fault or an attack got
/// past the transfer's CRC) runs decompress_stream() into `decoded`, and
/// the result points there. nullptr when that decode fails.
[[nodiscard]] const std::vector<std::uint8_t>* staged_image(
    const AirImage& air, std::span<const std::uint8_t> staged,
    std::optional<std::vector<std::uint8_t>>& decoded);

/// Convenience: average power if a node is OTA-updated once per `period`
/// and sleeps otherwise (§5.3's 71 uW / 27 uW numbers).
[[nodiscard]] Milliwatts amortized_update_power(const UpdateReport& report,
                                                Seconds period);

}  // namespace tinysdr::ota
