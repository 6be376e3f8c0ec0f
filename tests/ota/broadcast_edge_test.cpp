// Broadcast OTA edge cases beyond the §7 study tests.
#include <gtest/gtest.h>

#include "ota/broadcast.hpp"

namespace tinysdr::ota {
namespace {

TEST(BroadcastEdge, EmptyImageCompletesInstantly) {
  std::vector<std::uint8_t> empty;
  std::vector<OtaLink> links;
  links.emplace_back(ota_link_params(), Dbm{-70.0}, Rng{1});
  auto outcome = broadcast(empty, links);
  EXPECT_EQ(outcome.nodes_complete, 1u);
  EXPECT_EQ(outcome.packets_broadcast, 0u);
}

TEST(BroadcastEdge, SingleNodeEquivalentToUnicastPacketCount) {
  std::vector<std::uint8_t> image(601, 0x42);  // 11 packets (60 B each)
  std::vector<OtaLink> links;
  links.emplace_back(ota_link_params(), Dbm{-70.0}, Rng{2});
  auto outcome = broadcast(image, links);
  EXPECT_EQ(outcome.nodes_complete, 1u);
  EXPECT_EQ(outcome.packets_broadcast, 11u);
}

TEST(BroadcastEdge, RoundLimitBoundsHopelessLinks) {
  std::vector<std::uint8_t> image(3000, 0x11);
  std::vector<OtaLink> links;
  links.emplace_back(ota_link_params(), Dbm{-140.0}, Rng{3});  // dead link
  auto outcome = broadcast(image, links);
  EXPECT_EQ(outcome.nodes_complete, 0u);
  EXPECT_EQ(outcome.repair_rounds, kBroadcastMaxRounds);
  // Bounded work: at most rounds * packet_count broadcasts.
  EXPECT_LE(outcome.packets_broadcast,
            kBroadcastMaxRounds * ((image.size() + 59) / 60));
}

TEST(BroadcastEdge, MixedFleetOnlyRepairsTheWeak) {
  // One perfect link, one marginal: repairs must not rebroadcast what the
  // strong node already has beyond the union of missing packets.
  std::vector<std::uint8_t> image(6000, 0x77);
  std::size_t base_packets = (image.size() + 59) / 60;
  std::vector<OtaLink> links;
  links.emplace_back(ota_link_params(), Dbm{-60.0}, Rng{4});
  Dbm marginal =
      lora::sx1276_sensitivity(8, Hertz::from_kilohertz(500.0)) + 2.0;
  links.emplace_back(ota_link_params(), marginal, Rng{5});
  auto outcome = broadcast(image, links);
  EXPECT_EQ(outcome.nodes_complete, 2u);
  // Repairs happened but far fewer than a full second pass.
  EXPECT_GT(outcome.packets_broadcast, base_packets);
  EXPECT_LT(outcome.packets_broadcast, base_packets * 2);
}

TEST(BroadcastEdge, SpeedupHelperSane) {
  BroadcastOutcome outcome;
  outcome.total_time = Seconds{10.0};
  EXPECT_NEAR(outcome.speedup_vs(Seconds{100.0}), 10.0, 1e-12);
  BroadcastOutcome zero;
  EXPECT_DOUBLE_EQ(zero.speedup_vs(Seconds{100.0}), 0.0);
}

}  // namespace
}  // namespace tinysdr::ota
