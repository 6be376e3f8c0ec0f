// OTA transfer edge cases (satellite of the fault-injection PR):
// degenerate image sizes, operation right at the PER waterfall, and
// budget-exhaustion failure reporting.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ota/protocol.hpp"
#include "sim/faults.hpp"

namespace tinysdr::ota {
namespace {

TEST(OtaEdge, ZeroByteImageSucceedsWithNoDataPackets) {
  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{1}};
  AccessPoint ap;
  auto outcome = ap.transfer({}, 7, link);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.failure, UpdateFailure::kNone);
  EXPECT_EQ(outcome.data_packets, 0u);
  EXPECT_EQ(outcome.retransmissions, 0u);
  EXPECT_TRUE(outcome.sends_per_chunk.empty());
  // The control plane (request/ready + end handshake) still costs airtime.
  EXPECT_GT(outcome.airtime.value(), 0.0);
}

TEST(OtaEdge, ImageExactlyFillingLastPacket) {
  // 50 * 60 bytes: the final DATA packet carries a full 60 B payload.
  std::vector<std::uint8_t> image(50 * kDataPayload);
  std::iota(image.begin(), image.end(), 0);
  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{2}};
  FlashModel flash;
  NodeAgent node{9, flash};
  AccessPoint ap;
  auto outcome = ap.transfer(image, 9, link, TransferPolicy{}, &node);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.data_packets, 50u);
  // Node staged exactly the stream, byte for byte.
  EXPECT_EQ(flash.read(NodeAgent::kStagingBase, image.size()), image);
}

TEST(OtaEdge, OneBytePastPacketBoundary) {
  std::vector<std::uint8_t> image(kDataPayload + 1, 0x5A);
  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{3}};
  AccessPoint ap;
  auto outcome = ap.transfer(image, 9, link);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.data_packets, 2u);
  ASSERT_EQ(outcome.sends_per_chunk.size(), 2u);
  EXPECT_GE(outcome.sends_per_chunk[1], 1u);
}

TEST(OtaEdge, CompletesAtSensitivityWaterfall) {
  // RSSI right at the sensitivity threshold: PER ~ 0.5 per packet. The
  // selective-ACK engine must still converge (every chunk independently
  // survives eventually; only the budget is consumed faster).
  Dbm rssi = lora::sx1276_sensitivity(8, Hertz::from_kilohertz(500.0));
  OtaLink link{ota_link_params(), rssi, std::uint64_t{4}};
  double per = link.packet_error_rate(kDataPayload + 7);
  EXPECT_GT(per, 0.3);
  EXPECT_LT(per, 0.8);

  std::vector<std::uint8_t> image(3000, 0xC3);
  TransferPolicy policy;
  policy.max_retries = 200;
  AccessPoint ap;
  auto outcome = ap.transfer(image, 5, link, policy);
  EXPECT_TRUE(outcome.success);
  EXPECT_GT(outcome.retransmissions, 0u);
  EXPECT_EQ(outcome.data_packets, (image.size() + 59) / 60);
}

TEST(OtaEdge, RetryBudgetExhaustionReportsCauseAndCounters) {
  // A clean link but every DATA payload arrives corrupted: SACK polls
  // succeed yet never show progress, so the engine burns its retry and
  // re-association budgets and gives up with the right cause.
  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{5}};
  sim::FaultPlan plan;
  plan.seed = 77;
  plan.corrupt_rate = 1.0;
  sim::FaultInjector faults{plan};
  FlashModel flash;
  NodeAgent node{3, flash, &faults};
  TransferPolicy policy;
  policy.max_retries = 4;
  std::vector<std::uint8_t> image(600, 0xEE);
  AccessPoint ap;
  auto outcome = ap.transfer(image, 3, link, policy, &node, &faults);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.failure, UpdateFailure::kRetryBudget);
  EXPECT_EQ(outcome.data_packets, 0u);       // nothing ever stored
  EXPECT_GT(outcome.corrupted_dropped, 0u);  // the reason why
  EXPECT_GT(outcome.backoff_events, 0u);
  EXPECT_EQ(outcome.reassociations, kMaxReassociations);
  EXPECT_EQ(outcome.link_seed, 5u);
}

TEST(OtaEdge, AssociationFailureOnDeadLink) {
  OtaLink link{ota_link_params(), Dbm{-140.0}, std::uint64_t{6}};
  TransferPolicy policy;
  policy.max_retries = 5;
  AccessPoint ap;
  auto outcome = ap.transfer(std::vector<std::uint8_t>(500, 1), 2, link,
                             policy);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.failure, UpdateFailure::kAssociation);
  EXPECT_EQ(outcome.data_packets, 0u);
}

TEST(OtaEdge, DeadlineBudgetAborts) {
  // Moderate loss plus a deadline far smaller than the transfer needs.
  Dbm rssi = lora::sx1276_sensitivity(8, Hertz::from_kilohertz(500.0)) + 2.0;
  OtaLink link{ota_link_params(), rssi, std::uint64_t{7}};
  TransferPolicy policy;
  policy.deadline = Seconds::from_milliseconds(40.0);
  AccessPoint ap;
  auto outcome =
      ap.transfer(std::vector<std::uint8_t>(60000, 0x77), 2, link, policy);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.failure, UpdateFailure::kDeadline);
  EXPECT_LE(outcome.total_time.value(), 1.0);  // gave up promptly
}

TEST(OtaEdge, SeededRunsReplayExactly) {
  std::vector<std::uint8_t> image(5000, 0x42);
  Dbm rssi = lora::sx1276_sensitivity(8, Hertz::from_kilohertz(500.0)) + 2.5;
  AccessPoint ap;
  OtaLink a{ota_link_params(), rssi, std::uint64_t{0xABCD}};
  OtaLink b{ota_link_params(), rssi, std::uint64_t{0xABCD}};
  auto first = ap.transfer(image, 4, a);
  auto second = ap.transfer(image, 4, b);
  EXPECT_EQ(first.success, second.success);
  EXPECT_EQ(first.retransmissions, second.retransmissions);
  EXPECT_EQ(first.backoff_events, second.backoff_events);
  EXPECT_DOUBLE_EQ(first.airtime.value(), second.airtime.value());
  EXPECT_EQ(first.sends_per_chunk, second.sends_per_chunk);
}

// --------------------------------------------------- protocol attacks
// Deterministic (non-random) LinkAttacker implementations: each test
// scripts exactly one attack dimension and asserts the protocol detects,
// counts and survives it. Seeded probabilistic attackers live in
// adversary:: and are covered by tests/adversary/.

/// Forges the node's reply for the first `n` ACK-bearing exchanges.
struct ForgeFirstN final : LinkAttacker {
  explicit ForgeFirstN(std::size_t n) : remaining(n) {}
  std::size_t remaining;
  bool forge_ack(OtaPacketType) override {
    if (remaining == 0) return false;
    --remaining;
    return true;
  }
};

/// Truncates every DATA frame for one specific chunk, `n` times.
struct TruncateSeq final : LinkAttacker {
  TruncateSeq(std::uint16_t seq, std::size_t n) : target(seq), remaining(n) {}
  std::uint16_t target;
  std::size_t remaining;
  bool truncate_chunk(std::uint16_t seq) override {
    if (seq != target || remaining == 0) return false;
    --remaining;
    return true;
  }
};

/// Replays a captured copy of every successfully stored chunk.
struct ReplayEverything final : LinkAttacker {
  bool replay_chunk(std::uint16_t) override { return true; }
};

TEST(OtaAttackEdge, ForgedAcksAreDiscardedAndTransferStillCompletes) {
  std::vector<std::uint8_t> image(1800, 0x3C);
  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{21}};
  ForgeFirstN attacker{5};
  TransferPolicy policy;
  policy.mode = AckMode::kStopAndWait;  // every chunk has an ACK to forge
  policy.max_retries = 50;
  AccessPoint ap;
  auto outcome =
      ap.transfer(image, 4, link, policy, nullptr, nullptr, &attacker);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.forged_acks_discarded, 5u);
  EXPECT_EQ(attacker.remaining, 0u);
  // Each forged ACK burned an exchange: the data had to be re-sent.
  EXPECT_GE(outcome.retransmissions, 5u);
}

TEST(OtaAttackEdge, TruncatedChunksAreDroppedThenRecovered) {
  std::vector<std::uint8_t> image(1200, 0x7E);
  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{22}};
  TruncateSeq attacker{3, 4};  // chunk 3 arrives clipped four times
  FlashModel flash;
  NodeAgent node{6, flash};
  TransferPolicy policy;
  policy.max_retries = 50;
  AccessPoint ap;
  auto outcome =
      ap.transfer(image, 6, link, policy, &node, nullptr, &attacker);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.truncated_dropped, 4u);
  // The clipped payload never landed: the staged bytes are exact.
  EXPECT_EQ(flash.read(NodeAgent::kStagingBase, image.size()), image);
}

TEST(OtaAttackEdge, ReplayedChunksAreDedupedByTheBitmap) {
  std::vector<std::uint8_t> image(1500, 0x99);
  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{23}};
  ReplayEverything attacker;
  FlashModel flash;
  NodeAgent node{8, flash};
  AccessPoint ap;
  auto outcome = ap.transfer(image, 8, link, TransferPolicy{}, &node, nullptr,
                             &attacker);
  EXPECT_TRUE(outcome.success);
  // One replay per stored chunk, every one dropped as a duplicate.
  EXPECT_EQ(outcome.replays_dropped, outcome.data_packets);
  EXPECT_EQ(flash.read(NodeAgent::kStagingBase, image.size()), image);
}

TEST(OtaAttackEdge, NullAttackerHooksChangeNothing) {
  // The default LinkAttacker attacks nothing: outcomes must match a run
  // with no attacker at all, bit for bit.
  std::vector<std::uint8_t> image(2400, 0x42);
  Dbm rssi = lora::sx1276_sensitivity(8, Hertz::from_kilohertz(500.0)) + 2.5;
  AccessPoint ap;
  OtaLink a{ota_link_params(), rssi, std::uint64_t{0xFACE}};
  OtaLink b{ota_link_params(), rssi, std::uint64_t{0xFACE}};
  LinkAttacker noop;
  auto bare = ap.transfer(image, 4, a);
  auto hooked = ap.transfer(image, 4, b, TransferPolicy{}, nullptr, nullptr,
                            &noop);
  EXPECT_EQ(bare.success, hooked.success);
  EXPECT_EQ(bare.retransmissions, hooked.retransmissions);
  EXPECT_DOUBLE_EQ(bare.airtime.value(), hooked.airtime.value());
  EXPECT_EQ(bare.sends_per_chunk, hooked.sends_per_chunk);
  EXPECT_EQ(hooked.jammed_packets, 0u);
  EXPECT_EQ(hooked.forged_acks_discarded, 0u);
}

TEST(OtaEdge, StopAndWaitModeStillWorks) {
  std::vector<std::uint8_t> image(3000, 0x99);
  OtaLink link{ota_link_params(), Dbm{-60.0}, std::uint64_t{8}};
  TransferPolicy policy;
  policy.mode = AckMode::kStopAndWait;
  AccessPoint ap;
  auto outcome = ap.transfer(image, 6, link, policy);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.data_packets, (image.size() + 59) / 60);
  // Per-packet ACKs: one per chunk on a clean link.
  EXPECT_GE(outcome.ack_packets, outcome.data_packets);
}

}  // namespace
}  // namespace tinysdr::ota
