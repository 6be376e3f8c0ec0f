#include "testbed/multihop.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tinysdr::testbed {

Dbm MeshNetwork::link_rssi(double from_m, double to_m) const {
  double distance = std::abs(to_m - from_m);
  return model_.received_power(tx_power_, distance);
}

std::optional<Route> MeshNetwork::route_to(std::uint16_t dest_id,
                                           std::size_t payload_bytes) const {
  // Vertices: 0 = AP at position 0; 1..N = nodes.
  std::vector<double> pos{0.0};
  std::optional<std::size_t> dest_index;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    pos.push_back(nodes_[i].position_m);
    if (nodes_[i].id == dest_id) dest_index = i + 1;
  }
  if (!dest_index) return std::nullopt;

  // Dijkstra minimizing total airtime: each edge's cost is the time on
  // air at the fastest rate the link supports. (Fewest-hops would always
  // prefer one SF12 crawl over two SF7 hops — the opposite of what the
  // airtime/energy question asks.)
  auto edge_cost = [&](std::size_t u, std::size_t v)
      -> std::optional<double> {
    auto params = lora::select_rate(link_rssi(pos[u], pos[v]), margin_db_);
    if (!params) return std::nullopt;
    return lora::time_on_air(*params, payload_bytes).value();
  };

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(pos.size(), inf);
  std::vector<int> parent(pos.size(), -1);
  std::vector<bool> done(pos.size(), false);
  dist[0] = 0.0;
  for (;;) {
    std::size_t u = pos.size();
    double best = inf;
    for (std::size_t i = 0; i < pos.size(); ++i)
      if (!done[i] && dist[i] < best) {
        best = dist[i];
        u = i;
      }
    if (u == pos.size()) break;
    done[u] = true;
    for (std::size_t v = 0; v < pos.size(); ++v) {
      if (done[v] || v == u) continue;
      auto cost = edge_cost(u, v);
      if (!cost) continue;
      if (dist[u] + *cost < dist[v]) {
        dist[v] = dist[u] + *cost;
        parent[v] = static_cast<int>(u);
      }
    }
  }
  if (dist[*dest_index] == inf) return std::nullopt;

  // Walk back and rate each hop.
  std::vector<std::size_t> chain;
  for (std::size_t v = *dest_index; v != 0;
       v = static_cast<std::size_t>(parent[v]))
    chain.push_back(v);
  std::reverse(chain.begin(), chain.end());

  Route route;
  std::size_t prev = 0;
  for (std::size_t v : chain) {
    Hop hop;
    hop.from = prev == 0 ? std::uint16_t{0} : nodes_[prev - 1].id;
    hop.to = nodes_[v - 1].id;
    hop.rssi = link_rssi(pos[prev], pos[v]);
    auto params = lora::select_rate(hop.rssi, margin_db_);
    if (!params) return std::nullopt;  // raced past connectivity: give up
    hop.sf = params->sf;
    hop.airtime = lora::time_on_air(*params, payload_bytes);
    route.hops.push_back(hop);
    prev = v;
  }
  if (auto* t = obs::tracer()) {
    t->instant("testbed", "route",
               {obs::TraceArg::num("dest", static_cast<double>(dest_id)),
                obs::TraceArg::num("hops",
                                   static_cast<double>(route.hops.size())),
                obs::TraceArg::num("airtime_s", route.total_airtime().value())});
  }
  if (auto* m = obs::metrics()) {
    m->counter("testbed.routes_computed").add();
    m->histogram("testbed.route_hops",
                 obs::HistogramSpec::linear(0.0, 10.0, 10))
        .observe(static_cast<double>(route.hops.size()));
  }
  return route;
}

MultihopOutcome compare_direct_vs_relayed(const MeshNetwork& mesh,
                                          std::uint16_t dest_id,
                                          std::size_t payload_bytes) {
  MultihopOutcome out;
  double dest_pos = 0.0;
  for (const auto& n : mesh.nodes())
    if (n.id == dest_id) dest_pos = n.position_m;

  auto direct = lora::select_rate(mesh.link_rssi(0.0, dest_pos));
  if (direct) {
    out.direct_possible = true;
    out.direct_airtime = lora::time_on_air(*direct, payload_bytes);
  }
  out.relayed = mesh.route_to(dest_id, payload_bytes);
  return out;
}

}  // namespace tinysdr::testbed
