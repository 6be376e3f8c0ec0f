#include "ota/update.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/crc.hpp"
#include "obs/metrics.hpp"

namespace tinysdr::ota {

AirImage UpdatePlanner::prepare(const fpga::FirmwareImage& image) {
  auto blocks = compress_blocks(image.data);
  AirImage air;
  air.stream = frame_blocks(blocks);
  air.original_bytes = image.size();
  air.compressed_bytes = compressed_size(blocks);
  air.image_crc32 = crc32_ieee(image.data);
  // Nodes whose staged bytes equal the stream take `original` in place of
  // a decode, so the codec must give the image back exactly.
  if (decompress_stream(air.stream) != image.data)
    throw std::logic_error("UpdatePlanner::prepare: stream does not decode "
                           "to the image");
  air.original = image.data;
  return air;
}

const std::vector<std::uint8_t>* staged_image(
    const AirImage& air, std::span<const std::uint8_t> staged,
    std::optional<std::vector<std::uint8_t>>& decoded) {
  if (std::ranges::equal(staged, air.stream)) return &air.original;
  decoded = decompress_stream(staged);
  return decoded ? &*decoded : nullptr;
}

UpdateReport UpdatePlanner::run(const AirImage& air, UpdateTarget target,
                                std::uint16_t device_id, OtaLink& link,
                                FlashModel& flash, mcu::Msp432& mcu,
                                const UpdateOptions& options) const {
  UpdateReport report;
  report.target = target;
  report.original_bytes = air.original_bytes;
  report.compressed_bytes = air.compressed_bytes;
  const std::vector<std::uint8_t>& stream = air.stream;

  // Radio phase. The node agent streams chunks straight into the flash
  // staging region and checkpoints its session, so a brownout mid-transfer
  // resumes rather than restarting.
  NodeAgent node(device_id, flash, options.faults, &mcu);
  report.transfer =
      AccessPoint{}.transfer(stream, device_id, link, options.policy, &node,
                             options.faults, options.attacker);
  // An update that stops short ends with the radio phase: its time and
  // energy are the transfer's. A failed image write or decode falls back
  // to the golden image.
  auto stop = [&](UpdateFailure cause, bool rollback) {
    report.failure = cause;
    report.rolled_back = rollback && options.store != nullptr &&
                         options.store->rollback_to_golden();
    report.total_time = report.transfer.total_time;
    report.total_energy = report.transfer.node_energy;
    return report;
  };
  if (!report.transfer.success) return stop(report.transfer.failure, false);

  // The stream is already in flash (written chunk-by-chunk as it arrived);
  // keep the aggregate program time in the ledger.
  report.flash_time += FlashModel::program_time(stream.size());

  // Decompression: radio off; 30 kB SRAM block buffer on the MCU.
  mcu.allocate_sram("ota_block", static_cast<std::uint32_t>(kOtaBlockSize));
  std::optional<std::vector<std::uint8_t>> decoded;
  const std::vector<std::uint8_t>* decompressed = staged_image(
      air, flash.view(NodeAgent::kStagingBase, stream.size()), decoded);
  mcu.free_sram("ota_block");
  if (!decompressed || decompressed->size() != air.original_bytes)
    return stop(UpdateFailure::kDecodeFailed, true);
  report.decompress_time =
      Seconds{static_cast<double>(air.original_bytes) /
              kDecompressBytesPerSecond};

  if (options.store != nullptr) {
    // A/B layout: the new image goes to the standby slot; the active slot
    // keeps running until the fingerprint checks out.
    Slot slot = options.store->standby_slot();
    bool written =
        options.store->write_slot(slot, *decompressed, options.image_version);
    if (!written)
      written = options.store->write_slot(slot, *decompressed,
                                          options.image_version);
    if (!written || options.store->slot_fingerprint(slot) != air.image_crc32)
      return stop(UpdateFailure::kImageVerify, true);
    if (!options.store->activate(slot)) {
      // The image verified but carries an older version than the node has
      // already run: the anti-rollback ratchet refuses it. No golden
      // rollback — the node survives on its current boot image.
      if (auto* m = obs::metrics())
        m->counter("adversary.ota.rollback_rejected").add();
      return stop(UpdateFailure::kRejectedRollback, false);
    }
    report.slot = slot;
    auto sectors = (decompressed->size() + FlashModel::kSectorSize - 1) /
                   FlashModel::kSectorSize;
    report.flash_time +=
        Seconds{FlashModel::sector_erase_time().value() *
                static_cast<double>(sectors)} +
        FlashModel::program_time(decompressed->size());
  } else {
    // Legacy layout: boot image at offset 0.
    flash.erase_range(0, decompressed->size());
    flash.program(0, *decompressed);
    report.flash_time += FlashModel::program_time(decompressed->size());
  }

  // Reprogram.
  if (target == UpdateTarget::kFpga) {
    fpga::ProgrammingModel prog;
    report.reprogram_time = prog.load_time(decompressed->size());
  } else {
    // MCU self-flash at ~32 kB/s effective.
    report.reprogram_time =
        Seconds{static_cast<double>(decompressed->size()) / 32768.0};
  }

  // Energy: radio phase already accounted; add MCU-active phases.
  power::PlatformPowerModel power_model;
  Milliwatts mcu_active = power_model.draw(power::Activity::kDecompress);
  Seconds mcu_time =
      report.decompress_time + report.flash_time + report.reprogram_time;
  report.total_energy = report.transfer.node_energy + mcu_active * mcu_time;
  report.total_time = report.transfer.total_time + mcu_time;
  report.success = true;
  return report;
}

Milliwatts amortized_update_power(const UpdateReport& report, Seconds period) {
  if (period.value() <= 0.0)
    throw std::invalid_argument("amortized_update_power: bad period");
  return Milliwatts{report.total_energy.value() / period.value()};
}

}  // namespace tinysdr::ota
