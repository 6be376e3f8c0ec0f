#include "ota/flash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.hpp"

namespace tinysdr::ota {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = rng.next_byte();
  return v;
}

TEST(FlashModel, FreshDeviceIsErased) {
  FlashModel flash;
  EXPECT_TRUE(flash.is_erased(0, 1024));
  EXPECT_TRUE(flash.is_erased(FlashModel::kCapacity - 64, 64));
}

TEST(FlashModel, ProgramAndReadBack) {
  FlashModel flash;
  auto data = random_bytes(1000, 1);
  flash.program(0x1000, data);
  EXPECT_EQ(flash.read(0x1000, data.size()), data);
}

TEST(FlashModel, NorAndSemantics) {
  // Programming over unerased cells can only clear bits.
  FlashModel flash;
  flash.program(0, std::vector<std::uint8_t>{0xF0});
  flash.program(0, std::vector<std::uint8_t>{0x0F});
  EXPECT_EQ(flash.read(0, 1)[0], 0x00);  // 0xF0 & 0x0F
}

TEST(FlashModel, EraseRestoresFf) {
  FlashModel flash;
  flash.program(100, std::vector<std::uint8_t>(16, 0x00));
  flash.erase_sector(100);
  EXPECT_TRUE(flash.is_erased(0, FlashModel::kSectorSize));
}

TEST(FlashModel, EraseRangeSweepsSectors) {
  FlashModel flash;
  flash.program(0, std::vector<std::uint8_t>(20000, 0x00));
  flash.erase_range(0, 20000);
  EXPECT_TRUE(flash.is_erased(0, 20000));
  // 20000 bytes span 5 sectors of 4 KiB.
  EXPECT_EQ(flash.erase_count(), 5u);
}

TEST(FlashModel, OutOfRangeThrows) {
  FlashModel flash;
  EXPECT_THROW(flash.program(FlashModel::kCapacity - 1,
                             std::vector<std::uint8_t>(2, 0)),
               std::out_of_range);
  EXPECT_THROW((void)flash.read(FlashModel::kCapacity, 1), std::out_of_range);
  EXPECT_THROW(flash.erase_sector(FlashModel::kCapacity), std::out_of_range);
}

TEST(FlashModel, SizeMaxAddressesAndLengthsThrowInsteadOfWrapping) {
  // address + length would wrap to a small number for these.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  FlashModel flash;
  EXPECT_THROW((void)flash.view(8, kMax - 4), std::out_of_range);
  EXPECT_THROW((void)flash.read(8, kMax - 4), std::out_of_range);
  EXPECT_THROW((void)flash.is_erased(8, kMax - 4), std::out_of_range);
  EXPECT_THROW((void)flash.erase_range(8, kMax - 4), std::out_of_range);
  EXPECT_THROW((void)flash.view(kMax, 1), std::out_of_range);
  EXPECT_THROW((void)flash.is_erased(kMax, 0), std::out_of_range);
  EXPECT_THROW((void)flash.erase_range(kMax - 4, 8), std::out_of_range);
  EXPECT_THROW(
      (void)flash.program(kMax - 1, std::vector<std::uint8_t>(2, 0)),
      std::out_of_range);
  EXPECT_THROW((void)flash.erase_sector(kMax), std::out_of_range);
  EXPECT_EQ(flash.erase_count(), 0u);
  // The last byte and an empty range at the very end are still inside.
  EXPECT_TRUE(flash.is_erased(FlashModel::kCapacity - 1, 1));
  EXPECT_TRUE(flash.view(FlashModel::kCapacity, 0).empty());
}

TEST(FlashModel, FaultedEraseOfAnUntouchedSectorCountsAndStaysErased) {
  FlashModel flash;
  std::vector<std::size_t> hooked;
  flash.set_sector_erase_hook([&](std::size_t address) {
    hooked.push_back(address);
    return true;  // every erase fails halfway
  });
  EXPECT_FALSE(flash.erase_range(0x3000, 2 * FlashModel::kSectorSize));
  EXPECT_EQ(hooked, (std::vector<std::size_t>{0x3000, 0x4000}));
  EXPECT_EQ(flash.erase_count(), 2u);
  EXPECT_EQ(flash.erase_failures(), 2u);
  EXPECT_TRUE(flash.is_erased(0x3000, 2 * FlashModel::kSectorSize));
}

TEST(FlashModel, FaultedEraseOfAWrittenSectorBlanksOnlyTheFirstHalf) {
  FlashModel flash;
  flash.program(0x5000, std::vector<std::uint8_t>(FlashModel::kSectorSize, 0));
  flash.set_sector_erase_hook([](std::size_t) { return true; });
  EXPECT_FALSE(flash.erase_sector(0x5000));
  EXPECT_TRUE(flash.is_erased(0x5000, FlashModel::kSectorSize / 2));
  EXPECT_EQ(flash.read(0x5000 + FlashModel::kSectorSize / 2,
                       FlashModel::kSectorSize / 2),
            std::vector<std::uint8_t>(FlashModel::kSectorSize / 2, 0));
}

TEST(FlashModel, ViewIsOneSpanAcrossWrittenAndUntouchedSectors) {
  FlashModel flash;
  // Straddle the boundary of sectors 1 and 2; sector 3 stays untouched.
  const std::size_t at = 2 * FlashModel::kSectorSize - 3;
  flash.program(at, std::vector<std::uint8_t>{0x11, 0x22, 0x33, 0x44, 0x55});
  auto bytes = flash.view(FlashModel::kSectorSize, 3 * FlashModel::kSectorSize);
  ASSERT_EQ(bytes.size(), 3 * FlashModel::kSectorSize);
  std::vector<std::uint8_t> expect(3 * FlashModel::kSectorSize, 0xFF);
  const std::size_t rel = at - FlashModel::kSectorSize;
  for (std::uint8_t i = 0; i < 5; ++i)
    expect[rel + i] = static_cast<std::uint8_t>(0x11 * (i + 1));
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expect.begin()));
  EXPECT_FALSE(flash.is_erased(at + 4, 1));
  EXPECT_TRUE(flash.is_erased(at + 5, 2 * FlashModel::kSectorSize));
}

TEST(FlashModel, MovesCarryTheCellsAndCounters) {
  FlashModel flash;
  flash.program(0x700, std::vector<std::uint8_t>{0x5A});
  flash.erase_sector(0x9000);
  FlashModel moved = std::move(flash);
  EXPECT_EQ(moved.read(0x700, 1)[0], 0x5A);
  EXPECT_EQ(moved.erase_count(), 1u);
  EXPECT_TRUE(moved.is_erased(0x701, FlashModel::kSectorSize));
}

TEST(FlashModel, EightMegabytesStoresMultipleBitstreams) {
  // §3.1.2: "it allows tinySDR to store multiple FPGA bitstreams and MCU
  // programs". 8 MB / 579 kB > 13 images.
  EXPECT_GT(FlashModel::kCapacity / (579 * 1024), 13u);
}

TEST(FirmwareStore, StoreLoadRoundTrip) {
  FlashModel flash;
  FirmwareStore store{flash};
  auto lora = random_bytes(579 * 1024, 2);
  auto ble = random_bytes(579 * 1024, 3);
  store.store("lora", lora);
  store.store("ble", ble);
  EXPECT_EQ(store.stored_count(), 2u);
  EXPECT_EQ(store.load("lora"), lora);
  EXPECT_EQ(store.load("ble"), ble);
}

TEST(FirmwareStore, UnknownNameReturnsNullopt) {
  FlashModel flash;
  FirmwareStore store{flash};
  EXPECT_FALSE(store.load("nothing").has_value());
}

TEST(FirmwareStore, ReplaceInPlace) {
  FlashModel flash;
  FirmwareStore store{flash};
  store.store("img", random_bytes(10000, 4));
  auto v2 = random_bytes(9000, 5);
  store.store("img", v2);
  EXPECT_EQ(store.load("img"), v2);
  EXPECT_EQ(store.stored_count(), 1u);
}

TEST(FirmwareStore, DetectsFlashCorruption) {
  FlashModel flash;
  FirmwareStore store{flash};
  store.store("img", random_bytes(5000, 6));
  // Corrupt the stored bytes behind the store's back.
  flash.program(10, std::vector<std::uint8_t>{0x00, 0x00, 0x00});
  EXPECT_FALSE(store.load("img").has_value());
}

TEST(FirmwareStore, ExhaustsFlashEventually) {
  FlashModel flash;
  FirmwareStore store{flash};
  auto image = random_bytes(1024 * 1024, 7);
  for (int i = 0; i < 7; ++i)
    store.store("img" + std::to_string(i), image);
  EXPECT_THROW(store.store("one_too_many", image), std::length_error);
}

TEST(FlashTiming, ProgramTimeScalesWithPages) {
  Seconds small = FlashModel::program_time(256);
  Seconds large = FlashModel::program_time(256 * 100);
  EXPECT_NEAR(large.value() / small.value(), 100.0, 1.0);
}

}  // namespace
}  // namespace tinysdr::ota
