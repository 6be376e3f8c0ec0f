// OTA programming campaign across the testbed (paper §5.3 / Fig. 14).
//
// Runs the full update pipeline against every node in a deployment and
// collects per-node programming times, reproducing the Fig. 14 CDFs for
// the LoRa FPGA image (579 kB -> ~99 kB), BLE FPGA image (-> ~40 kB) and
// the MCU programs (78 kB -> ~24 kB).
//
// Campaigns shard across the exec worker pool: every node runs as one
// independent unit with a seed derived up front from the campaign seed +
// node id (exec::stream_seed) and its own telemetry shard, and shards are
// merged in node-index order afterwards. Metrics, trace and report output
// are therefore byte-identical for a fixed seed regardless of thread
// count — pass exec::ExecPolicy::serial() or ::with_threads(8), the
// bytes match.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/policy.hpp"
#include "ota/update.hpp"
#include "testbed/deployment.hpp"

namespace tinysdr::testbed {

struct CampaignResult {
  std::string image_name;
  std::vector<ota::UpdateReport> per_node;
  /// How the parallel region ended. When cancelled (or past deadline),
  /// `per_node` holds only the nodes that actually ran, in node order.
  exec::RunStatus exec_status{};

  [[nodiscard]] std::size_t successes() const;
  [[nodiscard]] Seconds mean_time() const;
  [[nodiscard]] Millijoules mean_energy() const;
  /// CDF of per-node total programming time in minutes (Fig. 14's x-axis).
  [[nodiscard]] std::vector<CdfPoint> time_cdf_minutes() const;
};

/// Update every node in the deployment with the given image, sharded
/// across the exec worker pool under `policy` (by default the thread
/// count comes from TINYSDR_THREADS / hardware concurrency). The RNG
/// supplies one campaign base seed; every per-node seed is derived from it
/// up front, independent of execution order.
[[nodiscard]] CampaignResult run_campaign(
    const Deployment& deployment, const fpga::FirmwareImage& image,
    ota::UpdateTarget target, Rng& rng, const exec::ExecPolicy& policy = {});

// ----------------------------------------------------- fault campaigns

/// One named fault regime to subject the fleet to.
struct FaultScenario {
  std::string name;
  sim::FaultPlan plan;
  ota::TransferPolicy policy{};
  /// Optional protocol-level adversary: called once per node with the
  /// node's derived seed, so attacker draws are deterministic and
  /// independent of fleet iteration order (adversary::attacker_factory
  /// builds one from an OtaAttackPlan).
  std::function<std::unique_ptr<ota::LinkAttacker>(std::uint64_t seed)>
      make_attacker;
  /// Monotonic version of the pushed image vs. the version the fleet is
  /// already running. image_version < fleet_version models a rollback
  /// attack; the nodes' anti-rollback ratchet must refuse it.
  std::uint32_t image_version = 1;
  std::uint32_t fleet_version = 0;
};

/// Fleet-level outcome of one scenario (or the fault-free baseline).
struct FaultCampaignEntry {
  std::string name;
  std::size_t nodes = 0;
  std::size_t successes = 0;
  std::vector<ota::UpdateReport> per_node;

  Seconds mean_time{0.0};         ///< successful nodes only
  Seconds mean_airtime{0.0};
  Millijoules mean_energy{0.0};
  /// Cost of the faults relative to the fault-free baseline (successful
  /// nodes only; zero for the baseline entry itself).
  Seconds added_airtime{0.0};
  Millijoules added_energy{0.0};

  std::size_t total_reboots = 0;
  std::size_t total_resumes = 0;
  std::size_t total_rollbacks = 0;
  std::size_t total_retransmissions = 0;
  // Detected-and-survived attack events, summed over the fleet; lets a
  // report distinguish "survived an attack" from a benign failure.
  std::size_t total_jammed_packets = 0;
  std::size_t total_forged_acks = 0;
  std::size_t total_truncated_dropped = 0;
  std::size_t total_replays_dropped = 0;
  /// Nodes that refused a version-rollback image (failure ==
  /// kRejectedRollback: the update "failed" but the node survived).
  std::size_t rollback_rejections = 0;

  [[nodiscard]] double success_rate() const {
    return nodes == 0 ? 0.0
                      : static_cast<double>(successes) /
                            static_cast<double>(nodes);
  }
};

struct FaultCampaignResult {
  FaultCampaignEntry baseline;             ///< fault-free reference run
  std::vector<FaultCampaignEntry> scenarios;
  /// Status of the last pass that ran. On cancellation the remaining
  /// scenarios are skipped and the partially-run pass reports only the
  /// nodes that completed.
  exec::RunStatus exec_status{};
};

/// Run the update across the fleet once fault-free, then once per fault
/// scenario, with per-node derived seeds so any node's run can be replayed
/// from its reported `transfer.link_seed`. Reports update success rate and
/// the airtime/energy cost of each fault regime vs the baseline. Nodes
/// within a pass shard across the exec worker pool under `policy`.
[[nodiscard]] FaultCampaignResult run_fault_campaign(
    const Deployment& deployment, const fpga::FirmwareImage& image,
    ota::UpdateTarget target, const std::vector<FaultScenario>& scenarios,
    Rng& rng, const exec::ExecPolicy& policy = {});

/// Per-node link seed derivation used by both campaign runners: high bits
/// from exec::stream_seed(pass_base, node id), node id packed in the low
/// 16 bits, so a node's run replays from its reported `link_seed` alone
/// and no node's seed depends on fleet iteration order.
[[nodiscard]] std::uint64_t node_link_seed(std::uint64_t pass_base,
                                           std::uint16_t node_id);

}  // namespace tinysdr::testbed
