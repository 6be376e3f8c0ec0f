#include "ota/flash.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/crc.hpp"

namespace tinysdr::ota {

namespace {

/// NOR: programming can only clear bits, so every cell ANDs with its data
/// byte. Eight cells per step, then the tail.
void and_into(std::uint8_t* cells, const std::uint8_t* data, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t c;
    std::uint64_t d;
    std::memcpy(&c, cells + i, 8);
    std::memcpy(&d, data + i, 8);
    c &= d;
    std::memcpy(cells + i, &c, 8);
  }
  for (; i < n; ++i) cells[i] &= data[i];
}

}  // namespace

void FlashModel::check_range(std::size_t address, std::size_t length,
                             const char* what) {
  if (address > kCapacity || length > kCapacity - address)
    throw std::out_of_range(std::string(what) + ": past end");
}

std::uint8_t* FlashModel::touch(std::size_t address,
                                std::size_t length) const {
  std::uint8_t* cells = memory_.get();
  if (length == 0) return cells + address;
  for (std::size_t s = address / kSectorSize;
       s <= (address + length - 1) / kSectorSize; ++s) {
    if (live_[s]) continue;
    std::memset(cells + s * kSectorSize, 0xFF, kSectorSize);
    live_.set(s);
  }
  return cells + address;
}

bool FlashModel::erase_sector(std::size_t address) {
  if (address >= kCapacity)
    throw std::out_of_range("FlashModel::erase_sector: past end");
  std::size_t base = address - (address % kSectorSize);
  ++erase_count_;
  // Power/voltage fault partway through: only the first half blanks.
  const bool faulted = sector_erase_hook_ && sector_erase_hook_(base);
  if (faulted) ++erase_failures_;
  // A sector nothing has touched already reads as erased.
  if (live_[base / kSectorSize])
    std::memset(memory_.get() + base, 0xFF,
                faulted ? kSectorSize / 2 : kSectorSize);
  return !faulted;
}

bool FlashModel::erase_range(std::size_t address, std::size_t length) {
  if (length == 0) return true;
  check_range(address, length, "FlashModel::erase_range");
  bool ok = true;
  std::size_t first = address - (address % kSectorSize);
  for (std::size_t s = first; s < address + length; s += kSectorSize)
    ok = erase_sector(s) && ok;
  return ok;
}

bool FlashModel::program(std::size_t address,
                         std::span<const std::uint8_t> data) {
  check_range(address, data.size(), "FlashModel::program");
  bool ok = true;
  std::uint8_t* cells = touch(address, data.size());
  // Real parts program through the page buffer; faults are per page op.
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t page_end = address + pos + kPageSize -
                           ((address + pos) % kPageSize);
    std::size_t len = std::min(data.size() - pos, page_end - (address + pos));
    std::optional<PageProgramFault> fault;
    if (page_program_hook_) fault = page_program_hook_(address + pos, len);
    std::size_t commit = fault ? std::min(fault->committed, len) : len;
    and_into(cells + pos, data.data() + pos, commit);
    if (fault) {
      ++program_failures_;
      ok = false;
      if (commit < len) {
        // Torn byte: the bits in torn_keep_mask refuse to clear.
        cells[pos + commit] &=
            static_cast<std::uint8_t>(data[pos + commit] |
                                      fault->torn_keep_mask);
      }
      bytes_programmed_ += commit + (commit < len ? 1 : 0);
    } else {
      bytes_programmed_ += len;
    }
    pos += len;
  }
  return ok;
}

std::vector<std::uint8_t> FlashModel::read(std::size_t address,
                                           std::size_t length) const {
  auto bytes = view(address, length);
  return {bytes.begin(), bytes.end()};
}

std::span<const std::uint8_t> FlashModel::view(std::size_t address,
                                               std::size_t length) const {
  check_range(address, length, "FlashModel: read");
  return {touch(address, length), length};
}

bool FlashModel::is_erased(std::size_t address, std::size_t length) const {
  check_range(address, length, "FlashModel::is_erased");
  const std::size_t end = address + length;
  for (std::size_t at = address; at < end;) {
    const std::size_t s = at / kSectorSize;
    const std::size_t stop = std::min(end, (s + 1) * kSectorSize);
    // Only a touched sector can hold a cleared bit.
    if (live_[s] && !std::all_of(memory_.get() + at, memory_.get() + stop,
                                 [](std::uint8_t b) { return b == 0xFF; }))
      return false;
    at = stop;
  }
  return true;
}

void FirmwareStore::store(const std::string& name,
                          std::span<const std::uint8_t> image) {
  // Reuse the slot if replacing; otherwise allocate after the last image,
  // rounded to sector alignment so erases never clip a neighbour.
  std::size_t offset;
  if (auto it = entries_.find(name);
      it != entries_.end() && it->second.length >= image.size()) {
    offset = it->second.offset;
  } else {
    offset = next_offset_;
    std::size_t need = image.size() + FlashModel::kSectorSize -
                       (image.size() % FlashModel::kSectorSize);
    if (offset + need > FlashModel::kCapacity)
      throw std::length_error("FirmwareStore: flash exhausted");
    next_offset_ = offset + need;
  }
  flash_->erase_range(offset, image.size());
  flash_->program(offset, image);
  entries_[name] = Entry{offset, image.size(), crc32_ieee(image)};
}

std::optional<std::vector<std::uint8_t>> FirmwareStore::load(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return std::nullopt;
  auto data = flash_->read(it->second.offset, it->second.length);
  if (crc32_ieee(data) != it->second.crc32) return std::nullopt;
  return data;
}

std::size_t FirmwareStore::slot_base(Slot slot) {
  switch (slot) {
    case Slot::kA:
      return kSlotABase;
    case Slot::kB:
      return kSlotBBase;
    case Slot::kGolden:
      return kGoldenBase;
  }
  return kGoldenBase;
}

bool FirmwareStore::write_slot(Slot slot, std::span<const std::uint8_t> image,
                               std::uint32_t version) {
  if (image.size() > kSlotCapacity)
    throw std::length_error("FirmwareStore::write_slot: image too large");
  std::size_t base = slot_base(slot);
  auto& st = state(slot);
  st.valid = false;
  st.length = image.size();
  st.crc32 = crc32_ieee(image);
  st.version = version;
  // Erase with verify-and-retry, as real update firmware does (a faulted
  // erase leaves stuck bits that a plain re-program cannot clear).
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (flash_->erase_range(base, image.size()) &&
        flash_->is_erased(base, image.size()))
      break;
  }
  flash_->program(base, image);
  // Read-back fingerprint verification decides validity.
  st.valid = crc32_ieee(flash_->view(base, image.size())) == st.crc32;
  return st.valid;
}

bool FirmwareStore::verifies(Slot slot) const {
  const auto& st = state(slot);
  if (!st.valid && st.length == 0) return false;
  return crc32_ieee(flash_->view(slot_base(slot), st.length)) == st.crc32;
}

bool FirmwareStore::activate(Slot slot) {
  if (!verifies(slot)) return false;
  // Anti-rollback ratchet: an image older than anything this node already
  // ran is refused — a downgrade attack, not a benign failure. The golden
  // image stays reachable through rollback_to_golden(), which is the
  // recovery path, not an activation.
  if (state(slot).version < min_version_) {
    ++rollback_rejections_;
    return false;
  }
  min_version_ = std::max(min_version_, state(slot).version);
  active_ = slot;
  return true;
}

bool FirmwareStore::rollback_to_golden() {
  ++rollbacks_;
  if (!verifies(Slot::kGolden)) return false;
  active_ = Slot::kGolden;
  return true;
}

std::uint32_t FirmwareStore::slot_fingerprint(Slot slot) const {
  return state(slot).crc32;
}

}  // namespace tinysdr::ota
