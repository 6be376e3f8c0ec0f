// NOR-semantics and fault-hook coverage for the flash model (satellite of
// the fault-injection PR): program-without-erase corruption, torn page
// programs, failed sector erases, and FirmwareStore integrity checks.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/crc.hpp"
#include "ota/flash.hpp"
#include "sim/faults.hpp"

namespace tinysdr::ota {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t start = 0) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

TEST(FlashNor, ProgramWithoutEraseCorrupts) {
  FlashModel flash;
  flash.erase_sector(0);
  std::vector<std::uint8_t> first(64, 0xAA);
  std::vector<std::uint8_t> second(64, 0x55);
  EXPECT_TRUE(flash.program(0, first));
  // Programming over unerased cells can only clear bits: AA & 55 = 00.
  EXPECT_TRUE(flash.program(0, second));
  auto back = flash.read(0, 64);
  for (auto b : back) EXPECT_EQ(b, 0x00);
}

TEST(FlashNor, ReprogramSameDataOverOnceErasedIsIdempotent) {
  // The self-healing property the OTA retransmission path relies on:
  // re-programming identical bytes over a region that was erased once
  // leaves the data intact (x & x == x).
  FlashModel flash;
  flash.erase_sector(0);
  auto data = pattern(256);
  EXPECT_TRUE(flash.program(0, data));
  EXPECT_TRUE(flash.program(0, data));
  EXPECT_EQ(flash.read(0, data.size()), data);
}

TEST(FlashNor, MidPagePowerLossLeavesPartialBits) {
  FlashModel flash;
  flash.erase_sector(0);
  // Deterministic hook: commit 100 bytes, tear the 101st with mask 0xF0.
  flash.set_page_program_hook(
      [](std::size_t, std::size_t) -> std::optional<PageProgramFault> {
        return PageProgramFault{100, 0xF0};
      });
  std::vector<std::uint8_t> data(256, 0x00);
  EXPECT_FALSE(flash.program(0, data));
  EXPECT_EQ(flash.program_failures(), 1u);
  auto back = flash.read(0, 256);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(back[i], 0x00);
  // Torn byte: high nibble refused to clear.
  EXPECT_EQ(back[100], 0xF0);
  // Beyond the tear nothing was programmed: still erased.
  for (std::size_t i = 101; i < 256; ++i) EXPECT_EQ(back[i], 0xFF);
}

TEST(FlashNor, TornPageHealsOnRetransmission) {
  FlashModel flash;
  flash.erase_sector(0);
  bool fail_once = true;
  flash.set_page_program_hook(
      [&](std::size_t, std::size_t) -> std::optional<PageProgramFault> {
        if (!fail_once) return std::nullopt;
        fail_once = false;
        return PageProgramFault{10, 0x0F};
      });
  auto data = pattern(60);
  EXPECT_FALSE(flash.program(0, data));
  EXPECT_NE(flash.read(0, data.size()), data);
  // Second program of the same bytes clears the remaining bits.
  EXPECT_TRUE(flash.program(0, data));
  EXPECT_EQ(flash.read(0, data.size()), data);
}

TEST(FlashNor, FailedSectorEraseLeavesStuckBits) {
  FlashModel flash;
  flash.erase_sector(0);
  std::vector<std::uint8_t> data(FlashModel::kSectorSize, 0x00);
  ASSERT_TRUE(flash.program(0, data));
  flash.set_sector_erase_hook([](std::size_t) { return true; });
  EXPECT_FALSE(flash.erase_sector(0));
  EXPECT_EQ(flash.erase_failures(), 1u);
  // First half blanked, second half still programmed.
  EXPECT_TRUE(flash.is_erased(0, FlashModel::kSectorSize / 2));
  EXPECT_FALSE(flash.is_erased(FlashModel::kSectorSize / 2,
                               FlashModel::kSectorSize / 2));
}

TEST(FlashFaults, InjectorDrivenProgramFaultsAreRegionScoped) {
  FlashModel flash;
  sim::FaultPlan plan;
  plan.seed = 21;
  plan.page_program_failure_rate = 1.0;
  plan.flash_fault_region =
      sim::FlashRegion{FirmwareStore::kSlotABase, 2 * 0x100000};
  sim::FaultInjector injector{plan};
  flash.set_page_program_hook(
      [&](std::size_t address,
          std::size_t length) -> std::optional<PageProgramFault> {
        auto f = injector.page_program_fault(address, length);
        if (!f) return std::nullopt;
        return PageProgramFault{f->committed, f->torn_keep_mask};
      });

  auto data = pattern(512);
  // Outside the fault region: clean.
  flash.erase_range(0, data.size());
  EXPECT_TRUE(flash.program(0, data));
  // Inside the region every page op faults.
  flash.erase_range(FirmwareStore::kSlotABase, data.size());
  EXPECT_FALSE(flash.program(FirmwareStore::kSlotABase, data));
  EXPECT_GT(injector.counters().page_program_failures, 0u);
}

TEST(FirmwareStore, LoadReturnsNulloptOnCorruptedImage) {
  FlashModel flash;
  FirmwareStore store{flash};
  auto image = pattern(4096);
  store.store("lora_fpga", image);
  ASSERT_TRUE(store.load("lora_fpga").has_value());
  // Corrupt the stored bytes behind the store's back (program clears bits).
  std::vector<std::uint8_t> zap(16, 0x00);
  flash.program(128, zap);
  EXPECT_FALSE(store.load("lora_fpga").has_value());
}

TEST(FirmwareStore, SlotWriteFailsVerifyUnderFaults) {
  FlashModel flash;
  sim::FaultPlan plan;
  plan.seed = 33;
  plan.page_program_failure_rate = 1.0;
  sim::FaultInjector injector{plan};
  FirmwareStore store{flash};
  auto image = pattern(2048);
  // Golden installed before the hooks go in (factory programming is clean).
  ASSERT_TRUE(store.install_golden(image));
  flash.set_page_program_hook(
      [&](std::size_t address,
          std::size_t length) -> std::optional<PageProgramFault> {
        auto f = injector.page_program_fault(address, length);
        if (!f) return std::nullopt;
        return PageProgramFault{f->committed, f->torn_keep_mask};
      });

  EXPECT_FALSE(store.write_slot(Slot::kA, image));
  // Activation of a slot that never verified is refused.
  EXPECT_FALSE(store.activate(Slot::kA));
  EXPECT_EQ(store.active_slot(), Slot::kGolden);
}

TEST(FirmwareStore, BootFallsBackToGoldenWhenActiveCorrupts) {
  FlashModel flash;
  FirmwareStore store{flash};
  auto golden = pattern(1024, 1);
  auto update = pattern(1024, 2);
  ASSERT_TRUE(store.install_golden(golden));
  ASSERT_TRUE(store.write_slot(Slot::kA, update));
  ASSERT_TRUE(store.activate(Slot::kA));
  EXPECT_EQ(store.active_slot(), Slot::kA);
  // Cosmic-ray the active slot: it no longer verifies, so it cannot be
  // re-activated, and the node recovers through the golden image.
  std::vector<std::uint8_t> zap(8, 0x00);
  flash.program(FirmwareStore::kSlotABase + 100, zap);
  EXPECT_FALSE(store.activate(Slot::kA));
  ASSERT_TRUE(store.rollback_to_golden());
  EXPECT_EQ(store.active_slot(), Slot::kGolden);
  EXPECT_EQ(store.rollback_count(), 1u);
  EXPECT_EQ(flash.read(FirmwareStore::kGoldenBase, golden.size()), golden);
}

}  // namespace
}  // namespace tinysdr::ota
