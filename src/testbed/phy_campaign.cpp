#include "testbed/phy_campaign.hpp"

#include <optional>
#include <stdexcept>

#include "exec/parallel_for.hpp"
#include "obs/shards.hpp"
#include "testbed/campaign.hpp"

namespace tinysdr::testbed {

std::vector<PhyProtocolSummary> PhyCampaignResult::by_protocol(
    const phy::Registry& registry) const {
  std::vector<PhyProtocolSummary> out;
  for (const auto& entry : registry.entries()) {
    PhyProtocolSummary s;
    s.protocol = entry.id;
    for (const auto& node : per_node) {
      if (node.protocol != entry.id) continue;
      ++s.nodes;
      s.frames += node.link.frames;
      s.frame_errors += node.link.frame_errors;
    }
    out.push_back(s);
  }
  return out;
}

std::vector<CdfPoint> PhyCampaignResult::delivery_cdf() const {
  std::vector<double> delivery;
  delivery.reserve(per_node.size());
  for (const auto& node : per_node)
    delivery.push_back(1.0 - node.link.per());
  return empirical_cdf(std::move(delivery));
}

PhyCampaignResult run_phy_campaign(const Deployment& deployment,
                                   const phy::Registry& registry,
                                   const PhyCampaignConfig& config,
                                   const exec::ExecPolicy& policy) {
  if (registry.size() == 0)
    throw std::invalid_argument("run_phy_campaign: empty registry");
  const phy::RegisteredPhy* pinned = nullptr;
  if (config.only_protocol) pinned = &registry.at(*config.only_protocol);

  const auto& nodes = deployment.nodes();
  PhyCampaignResult result;
  result.per_node.resize(nodes.size());

  obs::ItemShards shards{nodes.size()};

  result.exec_status = exec::parallel_for(
      nodes.size(), policy, [&](std::size_t i) {
        auto scope = shards.enter(i);
        const Node& node = nodes[i];
        const auto& entry =
            pinned != nullptr ? *pinned
                              : registry.entries()[i % registry.size()];
        auto tx = entry.make_tx();
        auto rx = entry.make_rx();

        phy::TrialPlan plan;
        plan.trials = config.trials_per_node;
        plan.payload_bytes = config.payload_bytes;
        plan.pad_samples = entry.pad_samples;
        plan.noise_figure_db = entry.system_noise_figure_db;
        plan.base_seed = node_link_seed(config.base_seed, node.id);

        phy::LinkSimulator sim{*tx, *rx, plan};
        PhyNodeResult& out = result.per_node[i];
        out.node_id = node.id;
        out.protocol = entry.id;
        out.rssi_dbm = node.rssi.value();
        out.link = sim.run_point({node.rssi, std::nullopt});
      });
  shards.fold_all();
  return result;
}

}  // namespace tinysdr::testbed
