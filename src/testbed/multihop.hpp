// Multi-hop relay study (paper §7: "One can also create multi-hop IoT
// PHY/MAC innovations, which have not been explored well given the lack of
// a flexible platform").
//
// tinySDR nodes are standalone transceivers, so any node can relay. We
// build the minimal substrate: a connectivity graph from the link budget,
// shortest-path routing (fewest hops, then strongest bottleneck link), and
// per-path airtime/energy accounting — enough to quantify when relaying
// beats cranking the spreading factor.
#pragma once

#include <optional>
#include <vector>

#include "lora/rate_adapt.hpp"
#include "testbed/deployment.hpp"

namespace tinysdr::testbed {

/// A node position on the (one-dimensional) campus transect. The paper's
/// map is anonymized; distances from the AP are what the link budget needs.
struct MeshNode {
  std::uint16_t id = 0;
  double position_m = 0.0;  ///< distance from the AP along the transect
};

struct Hop {
  std::uint16_t from = 0;  ///< 0 = AP
  std::uint16_t to = 0;
  Dbm rssi{0.0};
  int sf = 0;             ///< rate chosen per-hop by the ADR policy
  Seconds airtime{0.0};
};

struct Route {
  std::vector<Hop> hops;
  [[nodiscard]] Seconds total_airtime() const {
    Seconds t{0.0};
    for (const auto& h : hops) t += h.airtime;
    return t;
  }
  [[nodiscard]] std::size_t hop_count() const { return hops.size(); }
};

class MeshNetwork {
 public:
  /// @param model        propagation model between any two points
  /// @param tx_power     every node (and the AP) transmits at this level
  /// @param margin_db    ADR margin per hop
  MeshNetwork(channel::PathLossModel model, Dbm tx_power,
              double margin_db = 3.0)
      : model_(model), tx_power_(tx_power), margin_db_(margin_db) {}

  void add_node(MeshNode node) { nodes_.push_back(node); }
  [[nodiscard]] const std::vector<MeshNode>& nodes() const { return nodes_; }

  /// RSSI between two transect positions.
  [[nodiscard]] Dbm link_rssi(double from_m, double to_m) const;

  /// Route from the AP (position 0) to `dest_id` for a payload:
  /// breadth-first fewest-hops, each hop rated by the ADR policy.
  /// nullopt when the destination is unreachable even through relays.
  [[nodiscard]] std::optional<Route> route_to(std::uint16_t dest_id,
                                              std::size_t payload_bytes) const;

 private:
  channel::PathLossModel model_;
  Dbm tx_power_;
  double margin_db_;
  std::vector<MeshNode> nodes_;
};

/// Study record comparing direct vs multi-hop delivery to one node.
struct MultihopOutcome {
  bool direct_possible = false;
  Seconds direct_airtime{0.0};  ///< at the slowest workable direct rate
  std::optional<Route> relayed;
};

[[nodiscard]] MultihopOutcome compare_direct_vs_relayed(
    const MeshNetwork& mesh, std::uint16_t dest_id,
    std::size_t payload_bytes);

}  // namespace tinysdr::testbed
