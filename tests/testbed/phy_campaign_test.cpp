// Multi-PHY testbed campaign: protocol assignment, per-node determinism
// across thread counts, and the per-protocol aggregation.
#include "testbed/phy_campaign.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"

namespace tinysdr::testbed {
namespace {

Deployment small_deployment(std::uint64_t seed, std::size_t nodes) {
  Rng rng{seed};
  return Deployment::campus(rng, Dbm{14.0}, nodes);
}

PhyCampaignConfig quick_config() {
  PhyCampaignConfig config;
  config.trials_per_node = 3;
  config.payload_bytes = 8;
  config.base_seed = 5;
  return config;
}

TEST(PhyCampaign, AssignsProtocolsRoundRobin) {
  auto deployment = small_deployment(1, 10);
  const auto& registry = phy::Registry::builtin();
  auto result = run_phy_campaign(deployment, registry, quick_config(),
                                 exec::ExecPolicy::serial());
  ASSERT_EQ(result.per_node.size(), 10u);
  for (std::size_t i = 0; i < result.per_node.size(); ++i) {
    EXPECT_EQ(result.per_node[i].protocol,
              registry.entries()[i % registry.size()].id);
    EXPECT_EQ(result.per_node[i].link.frames, 3u);
  }
  auto summary = result.by_protocol(registry);
  ASSERT_EQ(summary.size(), registry.size());
  for (const auto& s : summary) EXPECT_EQ(s.nodes, 2u);
}

TEST(PhyCampaign, ByteIdenticalAcrossThreadCounts) {
  auto deployment = small_deployment(21, 10);
  const auto& registry = phy::Registry::builtin();
  auto config = quick_config();

  auto run = [&](const exec::ExecPolicy& policy) {
    obs::Registry metrics;
    obs::MetricsSession session{metrics};
    auto result = run_phy_campaign(deployment, registry, config, policy);
    return std::pair{result.per_node, metrics.snapshot().counters};
  };
  auto [serial, serial_counters] = run(exec::ExecPolicy::serial());
  ASSERT_TRUE(serial_counters.contains("phy.lora.trials"));
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    auto [parallel, parallel_counters] =
        run(exec::ExecPolicy::with_threads(threads));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].node_id, serial[i].node_id);
      EXPECT_EQ(parallel[i].protocol, serial[i].protocol);
      EXPECT_EQ(parallel[i].link, serial[i].link)
          << "node " << serial[i].node_id << " diverged at threads="
          << threads;
    }
    EXPECT_EQ(parallel_counters, serial_counters)
        << "telemetry diverged at threads=" << threads;
  }
}

TEST(PhyCampaign, StrongLinksDeliver) {
  // Every campus deployment has courtyard nodes; the delivery CDF's top
  // end must reach 1.0 and the narrowband PHYs must not be the failures.
  auto deployment = small_deployment(7, 20);
  auto result = run_phy_campaign(deployment, phy::Registry::builtin(),
                                 quick_config(), exec::ExecPolicy::serial());
  auto cdf = result.delivery_cdf();
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().value, 1.0);
}

TEST(PhyCampaign, EmptyRegistryThrows) {
  auto deployment = small_deployment(1, 2);
  phy::Registry empty;
  EXPECT_THROW(run_phy_campaign(deployment, empty, quick_config(),
                                exec::ExecPolicy::serial()),
               std::invalid_argument);
}

}  // namespace
}  // namespace tinysdr::testbed
