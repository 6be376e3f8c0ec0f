// MX25R6435F flash memory model (paper §3.1.2).
//
// 8 MB NOR flash storing FPGA bitstreams and MCU programs: "it allows
// tinySDR to store multiple FPGA bitstreams and MCU programs to quickly
// switch between stored protocols without having to re-send the
// programming data over the air." NOR semantics are modeled: erase sets a
// 4 KiB sector to 0xFF, programming can only clear bits (AND), and writes
// to unerased cells without erase corrupt data — catching a real class of
// firmware-update bugs.
//
// For fault-injection campaigns the model exposes two hooks queried per
// page-program and per sector-erase operation: a page program can tear
// mid-page (a prefix commits, one byte is left with partial bits), and a
// sector erase can fail halfway. `sim::FaultInjector` drives these hooks.
//
// The array is sparse. An update touches under 1 MiB of the 8 MiB, so a
// sector holds bytes of its own only once an operation touches it: until
// then it reads as erased. Callers see the same bytes as a dense array.
#pragma once

#include <bitset>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace tinysdr::ota {

/// Result of a faulted page program (mirrors sim::PageFault without a
/// dependency on the sim layer): `committed` leading bytes landed, the
/// next byte keeps the bits in `torn_keep_mask` uncleared.
struct PageProgramFault {
  std::size_t committed = 0;
  std::uint8_t torn_keep_mask = 0;
};

class FlashModel {
 public:
  static constexpr std::size_t kCapacity = 8 * 1024 * 1024;
  static constexpr std::size_t kSectorSize = 4 * 1024;
  static constexpr std::size_t kPageSize = 256;

  /// Fault hooks, queried once per physical operation. A page-program hook
  /// returns nullopt on success; a sector-erase hook returns true when the
  /// erase fails partway (only the first half of the sector is blanked).
  using PageProgramHook =
      std::function<std::optional<PageProgramFault>(std::size_t address,
                                                    std::size_t length)>;
  using SectorEraseHook = std::function<bool(std::size_t address)>;

  /// A blank part: every sector reads as erased, and none has storage
  /// filled yet. Move-only, since a node owns its flash.
  FlashModel()
      : memory_(std::make_unique_for_overwrite<std::uint8_t[]>(kCapacity)) {}

  /// Erase the 4 KiB sector containing `address`.
  /// Returns false if an injected fault left the sector partially erased.
  bool erase_sector(std::size_t address);
  /// Erase a whole address range (sector-aligned sweep).
  /// Returns false if any sector erase faulted.
  bool erase_range(std::size_t address, std::size_t length);

  /// Program bytes (NOR AND semantics, page-size chunks internally).
  /// Returns false if an injected fault tore any page program; callers
  /// that care should read back and verify, as real firmware does.
  /// @throws std::out_of_range past the end of the array.
  bool program(std::size_t address, std::span<const std::uint8_t> data);

  [[nodiscard]] std::vector<std::uint8_t> read(std::size_t address,
                                               std::size_t length) const;
  /// The same bytes as read(), without the copy. The span aliases the
  /// array, so it is valid until the next erase or program. It fills the
  /// untouched sectors it covers with 0xFF first, so, though const, it
  /// writes: one flash must not be viewed from two threads at once (each
  /// node owns its flash).
  /// @throws std::out_of_range past the end of the array.
  [[nodiscard]] std::span<const std::uint8_t> view(std::size_t address,
                                                   std::size_t length) const;

  /// True if the whole range reads 0xFF.
  [[nodiscard]] bool is_erased(std::size_t address, std::size_t length) const;

  void set_page_program_hook(PageProgramHook hook) {
    page_program_hook_ = std::move(hook);
  }
  void set_sector_erase_hook(SectorEraseHook hook) {
    sector_erase_hook_ = std::move(hook);
  }

  /// Lifetime wear statistics.
  [[nodiscard]] std::uint64_t erase_count() const { return erase_count_; }
  [[nodiscard]] std::uint64_t bytes_programmed() const {
    return bytes_programmed_;
  }
  /// Injected-fault statistics.
  [[nodiscard]] std::uint64_t program_failures() const {
    return program_failures_;
  }
  [[nodiscard]] std::uint64_t erase_failures() const {
    return erase_failures_;
  }

  /// Timing model (MX25R datasheet, low-power mode): a page program takes
  /// ~100 us typical (tBP), a sector erase ~58 ms typical.
  [[nodiscard]] static Seconds page_program_time() {
    return Seconds::from_microseconds(100.0);
  }
  [[nodiscard]] static Seconds sector_erase_time() {
    return Seconds::from_milliseconds(58.0);
  }
  /// Time to stream + program `length` bytes (SPI transfer overlapped with
  /// page programming; programming dominates).
  [[nodiscard]] static Seconds program_time(std::size_t length) {
    auto pages = (length + kPageSize - 1) / kPageSize;
    return Seconds{page_program_time().value() * static_cast<double>(pages)};
  }

 private:
  static constexpr std::size_t kSectors = kCapacity / kSectorSize;

  /// @throws std::out_of_range unless [address, address + length) lies
  /// inside the array (written so that a huge length cannot wrap).
  static void check_range(std::size_t address, std::size_t length,
                          const char* what);
  /// The cells of [address, address + length), with every sector they
  /// cover filled with 0xFF on its first touch.
  std::uint8_t* touch(std::size_t address, std::size_t length) const;

  /// Uninitialised until touch() fills a sector; `live_` marks the filled
  /// ones. A sector that is not live reads as erased.
  std::unique_ptr<std::uint8_t[]> memory_;
  mutable std::bitset<kSectors> live_;
  std::uint64_t erase_count_ = 0;
  std::uint64_t bytes_programmed_ = 0;
  std::uint64_t program_failures_ = 0;
  std::uint64_t erase_failures_ = 0;
  PageProgramHook page_program_hook_;
  SectorEraseHook sector_erase_hook_;
};

/// Firmware slot identifiers for the dual-image boot layout.
enum class Slot : std::uint8_t { kA, kB, kGolden };

/// Slot directory laid over the flash: named firmware images at fixed
/// offsets, with length and CRC32 tracked in a (RAM-resident) index the
/// MCU rebuilds at boot in the real system.
///
/// On top of the named store the class manages an A/B dual-slot boot
/// layout in the top of the array: two update slots plus a factory
/// "golden" image. OTA updates land in the standby slot; activation
/// requires a fingerprint match, and a corrupted active image rolls the
/// node back to golden at boot. The named region grows from offset 0 and
/// must stay below `kSlotABase` when slots are in use.
class FirmwareStore {
 public:
  // Flash layout of the managed region (staging for in-flight OTA data
  // lives at 4 MB, see ota::NodeAgent):
  //   [5.0 MB, 6.0 MB)  slot A
  //   [6.0 MB, 7.0 MB)  slot B
  //   [7.0 MB, 8 MB - 4 KiB)  golden image
  //   last sector       OTA transfer-session checkpoint (NodeAgent)
  static constexpr std::size_t kSlotABase = 0x500000;
  static constexpr std::size_t kSlotBBase = 0x600000;
  static constexpr std::size_t kGoldenBase = 0x700000;
  static constexpr std::size_t kSlotCapacity = 0x0FF000;

  explicit FirmwareStore(FlashModel& flash) : flash_(&flash) {}

  struct Entry {
    std::size_t offset;
    std::size_t length;
    std::uint32_t crc32;
  };

  /// Store an image under a name; erases + programs the region.
  /// @throws std::length_error when flash space is exhausted.
  void store(const std::string& name, std::span<const std::uint8_t> image);

  /// Read an image back, verifying its CRC. nullopt if unknown/corrupt.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> load(
      const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.contains(name);
  }
  [[nodiscard]] std::size_t stored_count() const { return entries_.size(); }
  [[nodiscard]] std::size_t bytes_used() const { return next_offset_; }

  // ------------------------------------------------------- A/B + golden

  /// Write an image into a slot (erase, program, read-back verify against
  /// the image fingerprint). Returns false if verification fails — e.g.
  /// under injected flash faults — leaving the slot marked invalid.
  /// `version` is the image's monotonic firmware version, checked by the
  /// anti-rollback ratchet at activation time.
  bool write_slot(Slot slot, std::span<const std::uint8_t> image,
                  std::uint32_t version = 0);

  /// Install the factory golden image (write + verify + remember).
  bool install_golden(std::span<const std::uint8_t> image,
                      std::uint32_t version = 0) {
    return write_slot(Slot::kGolden, image, version);
  }

  /// Make `slot` the boot image. Refuses (returns false) if the slot does
  /// not currently verify, or if its version is below the anti-rollback
  /// floor (every successful activation ratchets the floor up to the
  /// activated version — a downgrade attack is detected and counted, and
  /// the node keeps running its current image).
  bool activate(Slot slot);

  [[nodiscard]] Slot active_slot() const { return active_; }
  /// The slot the next update should land in (the inactive one of A/B).
  [[nodiscard]] Slot standby_slot() const {
    return active_ == Slot::kA ? Slot::kB : Slot::kA;
  }

  /// Roll back to the golden image; counts the event. Returns false if
  /// the golden image itself does not verify (unrecoverable node).
  bool rollback_to_golden();

  [[nodiscard]] std::size_t rollback_count() const { return rollbacks_; }
  [[nodiscard]] std::uint32_t slot_fingerprint(Slot slot) const;

  /// Anti-rollback state: the recorded firmware version of a slot, the
  /// ratcheted minimum acceptable version, and how many activations were
  /// refused for carrying an older version.
  [[nodiscard]] std::uint32_t slot_version(Slot slot) const {
    return state(slot).version;
  }
  [[nodiscard]] std::uint32_t min_version() const { return min_version_; }
  [[nodiscard]] std::size_t rollback_rejections() const {
    return rollback_rejections_;
  }

 private:
  struct SlotState {
    std::size_t length = 0;
    std::uint32_t crc32 = 0;
    std::uint32_t version = 0;
    bool valid = false;
  };

  [[nodiscard]] static std::size_t slot_base(Slot slot);
  /// True if the slot holds an image whose read-back matches its
  /// recorded fingerprint.
  [[nodiscard]] bool verifies(Slot slot) const;
  [[nodiscard]] const SlotState& state(Slot slot) const {
    return slots_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] SlotState& state(Slot slot) {
    return slots_[static_cast<std::size_t>(slot)];
  }

  FlashModel* flash_;
  std::map<std::string, Entry> entries_;
  std::size_t next_offset_ = 0;
  SlotState slots_[3];
  Slot active_ = Slot::kGolden;
  std::size_t rollbacks_ = 0;
  std::uint32_t min_version_ = 0;
  std::size_t rollback_rejections_ = 0;
};

}  // namespace tinysdr::ota
