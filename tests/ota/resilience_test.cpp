// Acceptance tests for the hardened OTA pipeline: selective-ACK vs
// stop-and-wait under burst loss, brownout resume without re-sending
// acknowledged chunks, and golden-image rollback on a corrupted update.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/crc.hpp"
#include "ota/protocol.hpp"
#include "ota/update.hpp"
#include "sim/faults.hpp"

namespace tinysdr::ota {
namespace {

std::vector<std::uint8_t> make_image(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return v;
}

// (a) Under Gilbert–Elliott burst loss at the same long-run PER, the
// windowed selective-ACK transfer completes in measurably less airtime
// than per-packet stop-and-wait.
TEST(OtaResilience, SelectiveAckBeatsStopAndWaitUnderBurstLoss) {
  channel::GilbertElliottParams burst{0.05, 0.30, 0.0, 0.9};
  auto image = make_image(12000);
  AccessPoint ap;

  TransferPolicy sack_policy;
  sack_policy.mode = AckMode::kSelectiveAck;
  sack_policy.max_retries = 200;
  TransferPolicy sw_policy;
  sw_policy.mode = AckMode::kStopAndWait;
  sw_policy.max_retries = 200;

  // Same strong RSSI (no waterfall loss) and the same seed: both runs see
  // an identically-parameterized burst process; only the ACK strategy
  // differs.
  OtaLink sack_link{ota_link_params(), Dbm{-60.0}, std::uint64_t{0xA11CE}};
  sack_link.set_burst(burst);
  OtaLink sw_link{ota_link_params(), Dbm{-60.0}, std::uint64_t{0xA11CE}};
  sw_link.set_burst(burst);

  auto sack = ap.transfer(image, 1, sack_link, sack_policy);
  auto sw = ap.transfer(image, 1, sw_link, sw_policy);

  ASSERT_TRUE(sack.success);
  ASSERT_TRUE(sw.success);
  EXPECT_EQ(sack.data_packets, sw.data_packets);
  // Measurably less: at least 10% airtime saved by batching ACKs.
  EXPECT_LT(sack.airtime.value(), 0.9 * sw.airtime.value());
}

// (b) A node that browns out at 50% of the transfer resumes from its
// flash checkpoint: the transfer still succeeds and already-acknowledged
// chunks are not re-sent.
TEST(OtaResilience, BrownoutAtHalfTransferResumesWithoutResending) {
  auto image = make_image(12000);
  const std::size_t chunks = (image.size() + kDataPayload - 1) / kDataPayload;

  sim::FaultPlan plan;
  plan.seed = 0xB0;
  plan.brownout_at_byte = image.size() / 2;
  sim::FaultInjector faults{plan};

  FlashModel flash;
  mcu::Msp432 mcu;
  mcu.capture_boot_image();
  NodeAgent node{4, flash, &faults, &mcu};
  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{0xB00}};
  TransferPolicy policy;
  AccessPoint ap;
  auto outcome = ap.transfer(image, 4, link, policy, &node, &faults);

  ASSERT_TRUE(outcome.success);
  EXPECT_EQ(outcome.node_reboots, 1u);
  EXPECT_GE(outcome.session_resumes, 1u);
  EXPECT_EQ(mcu.last_reset_cause(), mcu::ResetCause::kBrownout);
  EXPECT_EQ(outcome.data_packets, chunks);
  // The flash checkpoint covers everything the AP saw acknowledged, so at
  // most the in-flight window around the brownout is re-sent — never the
  // whole first half.
  std::size_t resent_chunks = 0;
  std::size_t total_sends = 0;
  for (auto sends : outcome.sends_per_chunk) {
    total_sends += sends;
    if (sends > 1) ++resent_chunks;
  }
  EXPECT_LE(resent_chunks, 2 * policy.window);
  EXPECT_LE(total_sends, chunks + 3 * policy.window);
  // And the staged stream is intact.
  EXPECT_EQ(flash.read(NodeAgent::kStagingBase, image.size()), image);
}

// (b continued) The persisted session must also survive a brownout right
// in the END phase, after the whole stream arrived.
TEST(OtaResilience, SessionPersistsAcrossExplicitReboot) {
  auto image = make_image(6000);
  FlashModel flash;
  NodeAgent node{2, flash};
  std::uint32_t session = crc32_ieee(image);
  ASSERT_FALSE(node.begin_session(session, image.size()));
  for (std::size_t seq = 0;
       seq * kDataPayload < image.size(); ++seq) {
    std::size_t len = std::min(kDataPayload, image.size() - seq * kDataPayload);
    auto status = node.receive_chunk(
        static_cast<std::uint16_t>(seq),
        std::span(image).subspan(seq * kDataPayload, len));
    ASSERT_EQ(status, NodeAgent::RxStatus::kStored);
  }
  node.persist_session();
  node.reboot();
  EXPECT_FALSE(node.online());
  EXPECT_TRUE(node.poll_boot());
  EXPECT_TRUE(node.has_session());
  EXPECT_TRUE(node.complete());
  EXPECT_EQ(node.resume_count(), 1u);
  EXPECT_TRUE(node.verify_stream(session));
}

// (c) When the final image fails verification, the update rolls back and
// the node still boots the golden image.
TEST(OtaResilience, CorruptedImageRollsBackToGolden) {
  auto image_bytes = make_image(40 * 1024);
  fpga::FirmwareImage image{"victim", image_bytes,
                            crc32_ieee(image_bytes)};
  auto golden = make_image(8 * 1024);

  // Flash faults confined to the A/B slot regions: the radio transfer and
  // staging stay healthy, but every slot write tears.
  sim::FaultPlan plan;
  plan.seed = 0xC0;
  plan.page_program_failure_rate = 1.0;
  plan.flash_fault_region =
      sim::FlashRegion{FirmwareStore::kSlotABase,
                       FirmwareStore::kGoldenBase - FirmwareStore::kSlotABase};
  sim::FaultInjector faults{plan};

  FlashModel flash;
  mcu::Msp432 mcu = mcu::baseline_firmware();
  FirmwareStore store{flash};
  ASSERT_TRUE(store.install_golden(golden));

  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{0xC00}};
  UpdateOptions options;
  options.faults = &faults;
  options.store = &store;
  UpdatePlanner planner;
  auto report = planner.run(UpdatePlanner::prepare(image), UpdateTarget::kFpga,
                            8, link, flash, mcu, options);

  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.failure, UpdateFailure::kImageVerify);
  EXPECT_TRUE(report.rolled_back);
  EXPECT_EQ(store.active_slot(), Slot::kGolden);
  EXPECT_EQ(flash.read(FirmwareStore::kGoldenBase, golden.size()), golden);
}

// (c control) With healthy flash the same pipeline lands the image in a
// standby slot and activates it.
TEST(OtaResilience, HealthyUpdateActivatesStandbySlot) {
  auto image_bytes = make_image(40 * 1024);
  fpga::FirmwareImage image{"update", image_bytes,
                            crc32_ieee(image_bytes)};
  auto golden = make_image(8 * 1024);

  FlashModel flash;
  mcu::Msp432 mcu = mcu::baseline_firmware();
  FirmwareStore store{flash};
  ASSERT_TRUE(store.install_golden(golden));

  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{0xD00}};
  UpdateOptions options;
  options.store = &store;
  UpdatePlanner planner;
  auto report = planner.run(UpdatePlanner::prepare(image), UpdateTarget::kFpga,
                            8, link, flash, mcu, options);

  ASSERT_TRUE(report.success);
  EXPECT_FALSE(report.rolled_back);
  ASSERT_TRUE(report.slot.has_value());
  EXPECT_EQ(*report.slot, Slot::kA);  // standby of golden-active is A
  EXPECT_EQ(store.active_slot(), Slot::kA);
  EXPECT_EQ(store.slot_fingerprint(Slot::kA), crc32_ieee(image_bytes));
  EXPECT_EQ(flash.read(FirmwareStore::kSlotABase, image_bytes.size()),
            image_bytes);
}

}  // namespace
}  // namespace tinysdr::ota
