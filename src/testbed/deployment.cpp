#include "testbed/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "lora/params.hpp"
#include "obs/metrics.hpp"

namespace tinysdr::testbed {

Deployment Deployment::campus(Rng& rng, Dbm ap_tx_power,
                              std::size_t node_count) {
  // 915 MHz backbone; campus path-loss exponent 3.1 (buildings and
  // foliage between the AP and the far nodes).
  channel::PathLossModel model{Hertz::from_megahertz(915.0), 3.1};
  Deployment d{model, ap_tx_power};

  // Distances log-uniform between 40 m (same building) and 2.5 km (far
  // edge of the coverage area), shadowing sigma = 4 dB; the far tail sits
  // near the backbone link's sensitivity, which is what spreads the
  // Fig. 14 CDF.
  for (std::size_t i = 0; i < node_count; ++i) {
    Node node;
    node.id = static_cast<std::uint16_t>(i + 1);
    double u = (static_cast<double>(i) + rng.next_double()) /
               static_cast<double>(node_count);
    node.distance_m = 40.0 * std::pow(2500.0 / 40.0, u);
    node.shadowing_db = rng.next_gaussian() * 4.0;
    channel::Link link;
    link.tx_power = ap_tx_power;
    link.tx_antenna_gain_db = 5.0;  // patch antenna at the AP
    link.distance_meters = node.distance_m;
    link.shadowing_db = node.shadowing_db;
    node.rssi = link.rssi(model);
    // The paper's deployment was engineered so every node is updatable;
    // keep at least 3 dB of margin over the backbone link's sensitivity
    // (a placement/antenna tweak in the real testbed).
    Dbm floor = lora::sx1276_sensitivity(8, Hertz::from_kilohertz(500.0)) +
                3.0;
    node.rssi = std::max(node.rssi, floor);
    d.nodes_.push_back(node);
  }
  return d;
}

Dbm Deployment::weakest_rssi() const {
  if (nodes_.empty()) throw std::logic_error("Deployment: empty");
  Dbm weakest = nodes_.front().rssi;
  for (const auto& n : nodes_) weakest = std::min(weakest, n.rssi);
  return weakest;
}

Dbm Deployment::strongest_rssi() const {
  if (nodes_.empty()) throw std::logic_error("Deployment: empty");
  Dbm strongest = nodes_.front().rssi;
  for (const auto& n : nodes_) strongest = std::max(strongest, n.rssi);
  return strongest;
}

void Deployment::export_metrics(obs::Registry& registry) const {
  registry.gauge("testbed.nodes").set(static_cast<double>(nodes_.size()));
  registry.gauge("testbed.ap_tx_dbm").set(ap_tx_power_.value());
  auto& rssi = registry.histogram(
      "testbed.node_rssi_dbm", obs::HistogramSpec::linear(-140.0, -40.0, 25));
  auto& distance = registry.histogram(
      "testbed.node_distance_m",
      obs::HistogramSpec::log_scale(10.0, 10000.0, 30));
  for_each_node([&](const Node& node) {
    rssi.observe(node.rssi.value());
    distance.observe(node.distance_m);
  });
}

std::vector<CdfPoint> empirical_cdf(std::vector<double>&& values) {
  std::sort(values.begin(), values.end());
  std::vector<CdfPoint> out;
  out.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.push_back(CdfPoint{values[i], static_cast<double>(i + 1) /
                                          static_cast<double>(values.size())});
  }
  return out;
}

}  // namespace tinysdr::testbed
