// Campus testbed model (paper Fig. 7: 20 tinySDR nodes across a campus).
//
// The published map is anonymized, so we synthesise a deployment with the
// same character: 20 nodes spread from courtyard distances to the
// kilometer-scale far corners of a campus, with log-normal shadowing. The
// AP transmits at 14 dBm through a patch antenna (§5.3).
#pragma once

#include <vector>

#include "channel/link_budget.hpp"
#include "common/rng.hpp"

namespace tinysdr::obs {
class Registry;
}

namespace tinysdr::testbed {

struct Node {
  std::uint16_t id = 0;
  double distance_m = 0.0;
  double shadowing_db = 0.0;
  Dbm rssi{-100.0};  ///< from the AP, via the deployment's path-loss model
};

class Deployment {
 public:
  /// Build the 20-node campus deployment.
  /// @param ap_tx_power      AP output (paper: 14 dBm + 5 dBi patch antenna)
  /// @param node_count       number of endpoints (paper: 20)
  static Deployment campus(Rng& rng, Dbm ap_tx_power = Dbm{14.0},
                           std::size_t node_count = 20);

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const channel::PathLossModel& path_loss() const {
    return model_;
  }
  [[nodiscard]] Dbm ap_tx_power() const { return ap_tx_power_; }

  /// RSSI statistics across the deployment.
  [[nodiscard]] Dbm weakest_rssi() const;
  [[nodiscard]] Dbm strongest_rssi() const;

  /// Visit every node in id order (telemetry exporters, per-node sweeps)
  /// without exposing the container.
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    for (const auto& node : nodes_) fn(node);
  }

  /// Record the deployment's shape into a metrics registry: node count,
  /// AP power, distance extremes, and an RSSI histogram.
  void export_metrics(obs::Registry& registry) const;

 private:
  Deployment(channel::PathLossModel model, Dbm tx)
      : model_(model), ap_tx_power_(tx) {}

  channel::PathLossModel model_;
  Dbm ap_tx_power_;
  std::vector<Node> nodes_;
};

/// Empirical CDF helper for per-node results (Fig. 14 is a CDF).
struct CdfPoint {
  double value;
  double probability;
};
/// Sorts in place (callers hand over the vector with std::move).
[[nodiscard]] std::vector<CdfPoint> empirical_cdf(std::vector<double>&& values);

}  // namespace tinysdr::testbed
