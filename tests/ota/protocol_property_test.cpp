// Property tests for the OTA protocol: the node-side chunk store against
// truncated/oversized/out-of-range deliveries (regression for the strict
// payload-length check), arbitrary delivery orders with duplicates, and
// the full transfer engine under randomized adversarial fault plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <tuple>
#include <vector>

#include "common/crc.hpp"
#include "ota/flash.hpp"
#include "ota/protocol.hpp"
#include "sim/faults.hpp"
#include "testkit/gen.hpp"
#include "testkit/property.hpp"

namespace tinysdr::ota {
namespace {

using RxStatus = NodeAgent::RxStatus;
using testkit::check;
using testkit::PropertyConfig;
namespace gen = testkit::gen;

std::vector<std::uint8_t> chunk_of(const std::vector<std::uint8_t>& image,
                                   std::size_t seq) {
  std::size_t off = seq * kDataPayload;
  std::size_t len = std::min(kDataPayload, image.size() - off);
  return {image.begin() + static_cast<std::ptrdiff_t>(off),
          image.begin() + static_cast<std::ptrdiff_t>(off + len)};
}

// ------------------------------------------------- satellite regression

TEST(NodeAgentRegression, TruncatedAndOversizedPayloadsAreRejected) {
  FlashModel flash;
  NodeAgent node{1, flash};
  node.begin_session(0xAB, 150);  // 3 chunks: 60 + 60 + 30
  ASSERT_EQ(node.total_chunks(), 3u);

  std::vector<std::uint8_t> payload(29, 0x11);
  EXPECT_EQ(node.receive_chunk(2, payload), RxStatus::kCorrupt);
  payload.resize(31, 0x11);
  EXPECT_EQ(node.receive_chunk(2, payload), RxStatus::kCorrupt);
  EXPECT_EQ(node.chunks_received(), 0u);

  payload.resize(30, 0x11);
  EXPECT_EQ(node.receive_chunk(2, payload), RxStatus::kStored);
  EXPECT_EQ(node.receive_chunk(2, payload), RxStatus::kDuplicate);

  // Out-of-range seq is corrupt, not UB and not a session killer.
  std::vector<std::uint8_t> full(kDataPayload, 0x22);
  EXPECT_EQ(node.receive_chunk(3, full), RxStatus::kCorrupt);
  EXPECT_EQ(node.receive_chunk(999, full), RxStatus::kCorrupt);
  EXPECT_TRUE(node.has_session());
  EXPECT_EQ(node.chunks_received(), 1u);
}

// ------------------------------------------------------------ properties

TEST(OtaProperty, AnyDeliveryOrderWithDuplicatesCompletesTheStream) {
  auto g = gen::pair_of(gen::bytes(1, 400), gen::uint_below(1u << 30));
  auto result = check(
      g,
      [](const std::pair<std::vector<std::uint8_t>, std::uint32_t>& c) {
        const auto& [image, order_seed] = c;
        const std::size_t chunks =
            (image.size() + kDataPayload - 1) / kDataPayload;

        FlashModel flash;
        NodeAgent node{1, flash};
        node.begin_session(0xC0DE, image.size());

        // A shuffled delivery order with each chunk sent twice.
        std::vector<std::size_t> sends(2 * chunks);
        for (std::size_t i = 0; i < sends.size(); ++i) sends[i] = i % chunks;
        Rng shuffle{order_seed, 1};
        for (std::size_t i = sends.size(); i > 1; --i)
          std::swap(sends[i - 1],
                    sends[shuffle.next_below(static_cast<std::uint32_t>(i))]);

        std::size_t stored = 0, duplicates = 0;
        for (std::size_t seq : sends) {
          auto status = node.receive_chunk(static_cast<std::uint16_t>(seq),
                                           chunk_of(image, seq));
          if (status == RxStatus::kStored) ++stored;
          if (status == RxStatus::kDuplicate) ++duplicates;
        }
        if (stored != chunks || duplicates != chunks) return false;
        if (!node.complete()) return false;
        if (flash.read(NodeAgent::kStagingBase, image.size()) != image)
          return false;
        return node.verify_stream(
            crc32_ieee(std::span<const std::uint8_t>{image}));
      });
  EXPECT_TRUE(result.ok) << result.message();
}

TEST(OtaProperty, TransferUnderAdversarialFaultsIsClassifiedAndExact) {
  auto g = gen::tuple_of(gen::bytes(1, 200),            // compressed image
                         gen::uint_below(1u << 30),     // link seed
                         gen::uint_below(1u << 30),     // fault seed
                         gen::boolean(),                // selective-ack?
                         gen::boolean());               // brownout?
  PropertyConfig cfg = PropertyConfig::from_env();
  cfg.cases = 40;  // each case is a whole transfer
  auto result = check(
      g,
      [](const std::tuple<std::vector<std::uint8_t>, std::uint32_t,
                          std::uint32_t, bool, bool>& c) {
        const auto& [image, link_seed, fault_seed, sack, brownout] = c;

        sim::FaultPlan plan;
        plan.seed = fault_seed;
        plan.corrupt_rate = 0.1;
        plan.duplicate_rate = 0.1;
        plan.reorder_rate = 0.05;
        plan.timeout_jitter = 0.1;
        if (brownout) plan.brownout_at_byte = image.size() / 2;
        sim::FaultInjector faults{plan};

        FlashModel flash;
        NodeAgent node{7, flash, &faults};
        TransferPolicy policy;
        policy.mode =
            sack ? AckMode::kSelectiveAck : AckMode::kStopAndWait;
        policy.window = 8;
        policy.max_retries = 12;
        OtaLink link{ota_link_params(), Dbm{-112.0}, link_seed};

        AccessPoint ap;
        UpdateOutcome out =
            ap.transfer(image, 7, link, policy, &node, &faults);

        if (out.success != (out.failure == UpdateFailure::kNone))
          return false;
        if (out.link_seed != link_seed) return false;
        if (out.total_time.value() < out.airtime.value()) return false;
        if (!out.success) return true;  // classified failure is fine

        const std::size_t chunks =
            (image.size() + kDataPayload - 1) / kDataPayload;
        if (out.sends_per_chunk.size() != chunks) return false;
        for (auto sends : out.sends_per_chunk)
          if (sends == 0) return false;
        auto staged = flash.read(NodeAgent::kStagingBase, image.size());
        return staged == image;
      },
      cfg);
  EXPECT_TRUE(result.ok) << result.message();
}

TEST(OtaProperty, BrownoutWithCheckpointResumesWithoutLosingFlashData) {
  auto g = gen::pair_of(gen::bytes(61, 300), gen::uint_below(1u << 30));
  auto result = check(
      g,
      [](const std::pair<std::vector<std::uint8_t>, std::uint32_t>& c) {
        const auto& [image, seed] = c;
        const std::size_t chunks =
            (image.size() + kDataPayload - 1) / kDataPayload;

        FlashModel flash;
        NodeAgent node{1, flash};
        node.begin_session(0xF00D, image.size());

        // Store a random prefix of chunks, checkpoint, then brown out.
        Rng rng{seed, 2};
        std::size_t keep = rng.next_below(
            static_cast<std::uint32_t>(chunks));
        for (std::size_t seq = 0; seq < keep; ++seq)
          if (node.receive_chunk(static_cast<std::uint16_t>(seq),
                                 chunk_of(image, seq)) != RxStatus::kStored)
            return false;
        node.persist_session();
        node.reboot();
        if (node.online()) return false;
        if (!node.poll_boot()) return false;

        // The resumed bitmap holds exactly the checkpointed chunks.
        if (node.chunks_received() != keep) return false;
        for (std::size_t seq = 0; seq < chunks; ++seq)
          if (node.has_chunk(seq) != (seq < keep)) return false;

        // Finishing the transfer from the gap yields the exact image.
        for (std::size_t seq = keep; seq < chunks; ++seq)
          if (node.receive_chunk(static_cast<std::uint16_t>(seq),
                                 chunk_of(image, seq)) != RxStatus::kStored)
            return false;
        return node.complete() &&
               flash.read(NodeAgent::kStagingBase, image.size()) == image &&
               node.resume_count() == 1;
      });
  EXPECT_TRUE(result.ok) << result.message();
}

}  // namespace
}  // namespace tinysdr::ota
