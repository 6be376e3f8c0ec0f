// Broadcast OTA update protocol (paper §7 future work: "we could explore
// modified MAC protocols that simultaneously broadcast the updates across
// the network to reduce programming time").
//
// Instead of updating nodes sequentially (§3.4's stop-and-wait unicast),
// the AP broadcasts every DATA packet once to all nodes, then runs repair
// rounds: it polls each node for a bitmap of missing sequence numbers and
// rebroadcasts the union until every node is complete (or the round limit
// hits). For N nodes with per-node loss p, broadcast sends ~size*(1+p*N')
// instead of ~N*size — the win Fig. 14's sequential times leave on the
// table.
#pragma once

#include <vector>

#include "ota/protocol.hpp"

namespace tinysdr::ota {

struct BroadcastOutcome {
  std::size_t nodes_complete = 0;
  std::size_t repair_rounds = 0;
  std::size_t packets_broadcast = 0;  ///< including repairs
  Seconds total_time{0.0};

  /// Speedup factor vs a given sequential campaign duration.
  [[nodiscard]] double speedup_vs(Seconds sequential_total) const {
    return total_time.value() <= 0.0
               ? 0.0
               : sequential_total.value() / total_time.value();
  }
};

/// Repair rounds a broadcast runs before giving up on the nodes still
/// incomplete.
inline constexpr std::size_t kBroadcastMaxRounds = 20;

/// Broadcast `image` to all `links` (one lossy link per node).
[[nodiscard]] BroadcastOutcome broadcast(const std::vector<std::uint8_t>& image,
                                         std::vector<OtaLink>& links);

}  // namespace tinysdr::ota
