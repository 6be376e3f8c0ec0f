#include "testbed/campaign.hpp"

#include <memory>
#include <optional>
#include <string>

#include "exec/parallel_for.hpp"
#include "exec/seed.hpp"
#include "obs/shards.hpp"

namespace tinysdr::testbed {

std::size_t CampaignResult::successes() const {
  std::size_t n = 0;
  for (const auto& r : per_node)
    if (r.success) ++n;
  return n;
}

Seconds CampaignResult::mean_time() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : per_node) {
    if (!r.success) continue;
    sum += r.total_time.value();
    ++n;
  }
  return n == 0 ? Seconds{0.0} : Seconds{sum / static_cast<double>(n)};
}

Millijoules CampaignResult::mean_energy() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : per_node) {
    if (!r.success) continue;
    sum += r.total_energy.value();
    ++n;
  }
  return n == 0 ? Millijoules{0.0}
                : Millijoules{sum / static_cast<double>(n)};
}

std::vector<CdfPoint> CampaignResult::time_cdf_minutes() const {
  std::vector<double> minutes;
  for (const auto& r : per_node)
    if (r.success) minutes.push_back(r.total_time.value() / 60.0);
  return empirical_cdf(std::move(minutes));
}

std::uint64_t node_link_seed(std::uint64_t pass_base,
                             std::uint16_t node_id) {
  return (exec::stream_seed(pass_base, node_id) << 16) | node_id;
}

namespace {

/// Run `run_node(node)` for every node of the deployment on the
/// exec worker pool, each with its own telemetry shards (the node traces
/// on its own track), then fold the shards in node-index order, laying
/// each node's timeline end to end after the previous one: byte-identical
/// output no matter the thread count. Returns the reports of the nodes
/// that ran, in node order (a cancelled node never starts).
template <typename RunNode>
std::vector<ota::UpdateReport> run_fleet(const Deployment& deployment,
                                         const exec::ExecPolicy& policy,
                                         exec::RunStatus& status,
                                         RunNode&& run_node) {
  const auto& nodes = deployment.nodes();
  std::vector<std::optional<ota::UpdateReport>> reports(nodes.size());
  obs::ItemShards shards{nodes.size()};

  status = exec::parallel_for(
      nodes.size(), policy, [&](std::size_t i) {
        auto scope = shards.enter(i);
        obs::set_node(nodes[i].id);
        reports[i] = run_node(nodes[i]);
      });

  std::vector<ota::UpdateReport> ran;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (!reports[i]) continue;
    shards.fold(i, reports[i]->total_time);
    ran.push_back(std::move(*reports[i]));
  }
  return ran;
}

/// Post-mortem trigger shared by both campaign drivers: when a run ended
/// with node failures, did not complete (deadline/cancellation), or any
/// warning-or-worse record landed in the flight recorder (a fault
/// fired), dump the black box. No-op without an installed recorder or a
/// configured dump path.
void maybe_dump_flight(const std::string& what, std::size_t failed_nodes,
                       const exec::RunStatus& status) {
  auto* f = obs::flight();
  if (f == nullptr) return;
  std::string reason;
  if (failed_nodes > 0) {
    reason = what + ": " + std::to_string(failed_nodes) + " node(s) failed";
  } else if (!status.complete()) {
    reason = what + ": " + exec::to_string(status.outcome);
  } else if (f->count_at_least(obs::FlightLevel::kWarn) > 0) {
    reason = what + ": fault records present";
  }
  if (reason.empty()) return;
  obs::dump_flight(reason);
}

/// The fault-free pass over the fleet that a plain campaign and a fault
/// campaign's baseline both run: each node on a fresh flash and MCU, over
/// its link seeded from `pass_base`.
std::vector<ota::UpdateReport> plain_pass(const Deployment& deployment,
                                          const ota::AirImage& air,
                                          ota::UpdateTarget target,
                                          std::uint64_t pass_base,
                                          const exec::ExecPolicy& policy,
                                          exec::RunStatus& status) {
  return run_fleet(deployment, policy, status, [&](const Node& node) {
    ota::OtaLink link{ota::ota_link_params(), node.rssi,
                      node_link_seed(pass_base, node.id)};
    ota::FlashModel flash;
    mcu::Msp432 mcu = mcu::baseline_firmware();
    return ota::UpdatePlanner{}.run(air, target, node.id, link, flash, mcu);
  });
}

/// The testbed.* metrics of one pass. A fault campaign creates both node
/// counters even at zero (`every_counter`); a plain campaign creates each
/// only once it counts a node.
void count_nodes(const std::vector<ota::UpdateReport>& reports,
                 bool every_counter) {
  auto* m = obs::metrics();
  if (m == nullptr) return;
  if (every_counter) {
    m->counter("testbed.nodes_attempted");
    m->counter("testbed.nodes_updated");
  }
  for (const auto& r : reports) {
    m->counter("testbed.nodes_attempted").add();
    if (!r.success) continue;
    m->counter("testbed.nodes_updated").add();
    m->histogram("testbed.node_time_min",
                 obs::HistogramSpec::linear(0.0, 240.0, 48))
        .observe(r.total_time.value() / 60.0);
  }
}

}  // namespace

CampaignResult run_campaign(const Deployment& deployment,
                            const fpga::FirmwareImage& image,
                            ota::UpdateTarget target, Rng& rng,
                            const exec::ExecPolicy& policy) {
  CampaignResult result;
  result.image_name = image.name;
  if (auto* t = obs::tracer()) t->name_track(0, "campaign");
  obs::TraceSpan campaign_span{"testbed", "campaign:" + image.name};
  // The AP compresses once; every node receives the same bytes.
  const ota::AirImage air = ota::UpdatePlanner::prepare(image);
  // One sequential draw for the whole campaign; every per-node seed is a
  // pure function of (base, node id).
  result.per_node = plain_pass(deployment, air, target,
                               exec::draw_base_seed(rng), policy,
                               result.exec_status);
  count_nodes(result.per_node, false);
  maybe_dump_flight("campaign:" + image.name,
                    result.per_node.size() - result.successes(),
                    result.exec_status);
  return result;
}

namespace {

FaultCampaignEntry summarize(std::string name,
                             std::vector<ota::UpdateReport> reports,
                             const FaultCampaignEntry* baseline) {
  FaultCampaignEntry entry;
  entry.name = std::move(name);
  entry.nodes = reports.size();
  double sum_time = 0.0, sum_air = 0.0, sum_energy = 0.0;
  for (const auto& r : reports) {
    entry.total_reboots += r.transfer.node_reboots;
    entry.total_resumes += r.transfer.session_resumes;
    entry.total_retransmissions += r.transfer.retransmissions;
    entry.total_jammed_packets += r.transfer.jammed_packets;
    entry.total_forged_acks += r.transfer.forged_acks_discarded;
    entry.total_truncated_dropped += r.transfer.truncated_dropped;
    entry.total_replays_dropped += r.transfer.replays_dropped;
    if (r.failure == ota::UpdateFailure::kRejectedRollback)
      ++entry.rollback_rejections;
    if (r.rolled_back) ++entry.total_rollbacks;
    if (!r.success) continue;
    ++entry.successes;
    sum_time += r.total_time.value();
    sum_air += r.transfer.airtime.value();
    sum_energy += r.total_energy.value();
  }
  if (entry.successes > 0) {
    double n = static_cast<double>(entry.successes);
    entry.mean_time = Seconds{sum_time / n};
    entry.mean_airtime = Seconds{sum_air / n};
    entry.mean_energy = Millijoules{sum_energy / n};
  }
  if (baseline != nullptr && entry.successes > 0 &&
      baseline->successes > 0) {
    entry.added_airtime =
        Seconds{entry.mean_airtime.value() - baseline->mean_airtime.value()};
    entry.added_energy = Millijoules{entry.mean_energy.value() -
                                     baseline->mean_energy.value()};
  }
  entry.per_node = std::move(reports);
  count_nodes(entry.per_node, true);
  return entry;
}

}  // namespace

FaultCampaignResult run_fault_campaign(
    const Deployment& deployment, const fpga::FirmwareImage& image,
    ota::UpdateTarget target, const std::vector<FaultScenario>& scenarios,
    Rng& rng, const exec::ExecPolicy& policy) {
  FaultCampaignResult result;
  // Compressed once, shared by the baseline and every scenario pass.
  const ota::AirImage air = ota::UpdatePlanner::prepare(image);

  if (auto* t = obs::tracer()) t->name_track(0, "campaign");

  // One draw roots the whole campaign; pass k's base is stream k of it,
  // and node seeds are derived per (pass base, node id) — comparable
  // RSSI-driven loss across scenarios, independent of iteration order.
  const std::uint64_t campaign_base = exec::draw_base_seed(rng);

  // Fault-free reference pass.
  {
    obs::TraceSpan scenario_span{"testbed", "scenario:baseline"};
    auto reports = plain_pass(deployment, air, target,
                              exec::stream_seed(campaign_base, 0), policy,
                              result.exec_status);
    result.baseline = summarize("baseline", std::move(reports), nullptr);
  }

  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    if (!result.exec_status.complete()) break;  // cancelled mid-campaign
    const FaultScenario& scenario = scenarios[k];
    obs::TraceSpan scenario_span{"testbed", "scenario:" + scenario.name};
    const std::uint64_t pass_base =
        exec::stream_seed(campaign_base, k + 1);
    auto reports = run_fleet(
        deployment, policy, result.exec_status,
        [&](const Node& node) {
          std::uint64_t seed = node_link_seed(pass_base, node.id);
          ota::OtaLink link{ota::ota_link_params(), node.rssi, seed};
          if (scenario.plan.burst) link.set_burst(*scenario.plan.burst);

          sim::FaultPlan plan = scenario.plan;
          plan.seed = seed ^ plan.seed;  // distinct fault stream per node
          sim::FaultInjector faults{plan};

          ota::FlashModel flash;
          mcu::Msp432 mcu = mcu::baseline_firmware();
          ota::FirmwareStore store{flash};
          // The fleet ships with a factory golden image to fall back on;
          // activating it ratchets the anti-rollback floor to the version
          // the fleet currently runs.
          std::vector<std::uint8_t> golden(
              16 * 1024, static_cast<std::uint8_t>(node.id));
          store.install_golden(golden, scenario.fleet_version);
          store.activate(ota::Slot::kGolden);

          std::unique_ptr<ota::LinkAttacker> attacker;
          if (scenario.make_attacker) attacker = scenario.make_attacker(seed);

          ota::UpdateOptions options;
          options.policy = scenario.policy;
          options.faults = &faults;
          options.store = &store;
          options.attacker = attacker.get();
          options.image_version = scenario.image_version;
          return ota::UpdatePlanner{}.run(air, target, node.id, link, flash,
                                          mcu, options);
        });
    result.scenarios.push_back(summarize(
        scenario.name, std::move(reports), &result.baseline));
  }
  std::size_t failed = result.baseline.nodes - result.baseline.successes;
  for (const auto& s : result.scenarios) failed += s.nodes - s.successes;
  maybe_dump_flight("fault-campaign:" + image.name, failed,
                    result.exec_status);
  return result;
}

}  // namespace tinysdr::testbed
