#include "ota/update.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/crc.hpp"
#include "common/rng.hpp"

namespace tinysdr::ota {
namespace {

fpga::FirmwareImage make_image(std::size_t n, std::uint64_t seed) {
  // Compressible: runs of a repeated byte between random literals.
  Rng rng{seed};
  std::vector<std::uint8_t> bytes;
  while (bytes.size() < n) {
    bytes.push_back(rng.next_byte());
    bytes.insert(bytes.end(), 1 + rng.next_byte() % 24, rng.next_byte());
  }
  bytes.resize(n);
  return {"update", bytes, crc32_ieee(bytes)};
}

/// Offset of the first payload byte of the stream's first block (after the
/// 10-byte block header) that has a bit NOR programming can still clear.
std::size_t first_clearable_payload_byte(const AirImage& air) {
  for (std::size_t i = 10; i < air.stream.size(); ++i)
    if (air.stream[i] != 0) return i;
  return air.stream.size();
}

TEST(UpdatePlanner, PrepareKeepsTheImageBesideTheStream) {
  const auto image = make_image(70 * 1024, 1);
  const AirImage air = UpdatePlanner::prepare(image);
  EXPECT_EQ(air.original, image.data);
  EXPECT_EQ(air.original_bytes, image.size());
  EXPECT_EQ(decompress_stream(air.stream), image.data);
}

TEST(StagedImage, TheSentStreamReturnsTheOriginalWithoutADecode) {
  const AirImage air = UpdatePlanner::prepare(make_image(70 * 1024, 2));
  const std::vector<std::uint8_t> staged = air.stream;  // a separate copy
  std::optional<std::vector<std::uint8_t>> decoded;
  EXPECT_EQ(staged_image(air, staged, decoded), &air.original);
  EXPECT_FALSE(decoded.has_value());
}

TEST(StagedImage, OneFlippedPayloadByteRunsTheDecoderAndFails) {
  const AirImage air = UpdatePlanner::prepare(make_image(70 * 1024, 3));
  std::vector<std::uint8_t> staged = air.stream;
  staged[first_clearable_payload_byte(air)] ^= 0x01;
  std::optional<std::vector<std::uint8_t>> decoded;
  EXPECT_EQ(staged_image(air, staged, decoded), nullptr);
  EXPECT_FALSE(decoded.has_value());
}

TEST(StagedImage, AnyOtherStreamIsDecodedForReal) {
  const AirImage air = UpdatePlanner::prepare(make_image(70 * 1024, 4));
  const auto other = make_image(40 * 1024, 5);
  const AirImage other_air = UpdatePlanner::prepare(other);
  std::optional<std::vector<std::uint8_t>> decoded;
  const std::vector<std::uint8_t>* image =
      staged_image(air, other_air.stream, decoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(image, &*decoded);
  EXPECT_EQ(*image, other.data);
  // A prefix of the sent stream differs over the full length too.
  const std::span<const std::uint8_t> prefix =
      std::span(air.stream).first(air.stream.size() - 1);
  decoded.reset();
  image = staged_image(air, prefix, decoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(image, &*decoded);
}

// A cell of the staging region loses a bit after the END check has passed
// (the transfer's whole-stream CRC32 sees every earlier change), so run()
// meets staged bytes that differ from the sent stream and must decode them.
TEST(UpdatePlanner, StagingCorruptedAfterTheEndCheckFailsDecodeAndRollsBack) {
  const AirImage air = UpdatePlanner::prepare(make_image(40 * 1024, 6));
  const std::size_t flip_at = first_clearable_payload_byte(air);
  ASSERT_LT(flip_at, air.stream.size());

  struct Node {
    FlashModel flash;
    FirmwareStore store{flash};
    mcu::Msp432 mcu = mcu::baseline_firmware();
    std::size_t session_erases = 0;
  };
  // Runs one update; `on_session_erase` sees every erase of the session
  // sector, the last of which clears the session after END.
  auto update = [&](Node& node, const std::function<void(Node&)>& on_erase) {
    node.store.install_golden(std::vector<std::uint8_t>(8 * 1024, 0x5A));
    node.store.activate(Slot::kGolden);
    node.flash.set_sector_erase_hook([&](std::size_t address) {
      if (address == NodeAgent::kSessionSector) {
        ++node.session_erases;
        on_erase(node);
      }
      return false;
    });
    OtaLink link{ota_link_params(), Dbm{-70.0}, std::uint64_t{0xBADC0DE}};
    UpdateOptions options;
    options.store = &node.store;
    return UpdatePlanner{}.run(air, UpdateTarget::kFpga, 5, link, node.flash,
                               node.mcu, options);
  };

  Node clean;
  const UpdateReport clean_report = update(clean, [](Node&) {});
  ASSERT_TRUE(clean_report.success);
  ASSERT_GT(clean.session_erases, 1u);

  Node faulty;
  const UpdateReport report = update(faulty, [&](Node& node) {
    if (node.session_erases != clean.session_erases) return;
    const std::uint8_t cell = air.stream[flip_at];
    node.flash.program(NodeAgent::kStagingBase + flip_at,
                       std::vector<std::uint8_t>{
                           static_cast<std::uint8_t>(cell & (cell - 1))});
  });
  EXPECT_TRUE(report.transfer.success);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.failure, UpdateFailure::kDecodeFailed);
  EXPECT_TRUE(report.rolled_back);
  EXPECT_EQ(faulty.store.active_slot(), Slot::kGolden);
  EXPECT_EQ(faulty.store.rollback_count(), 1u);
  EXPECT_FALSE(faulty.mcu.sram_map().contains("ota_block"));
}

}  // namespace
}  // namespace tinysdr::ota
