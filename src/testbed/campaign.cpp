#include "testbed/campaign.hpp"

#include <memory>
#include <optional>
#include <string>

#include "exec/parallel_for.hpp"
#include "exec/seed.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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

/// One node's unit of parallel work: its report plus the telemetry it
/// recorded, kept aside until the deterministic in-order merge.
struct NodeShard {
  std::optional<ota::UpdateReport> report;
  std::unique_ptr<obs::Tracer> trace;
  std::unique_ptr<obs::Registry> metrics;
  std::unique_ptr<obs::FlightRecorder> flight;
};

/// Run `run_node(node, index)` for every node of the deployment on the
/// exec worker pool, each with its own telemetry shard, then merge the
/// shards in node-index order: each node's timeline is laid end to end
/// after the previous one (shift_base), and its metric operations are
/// replayed in order — byte-identical output no matter the thread count.
template <typename RunNode>
exec::RunStatus run_fleet(const Deployment& deployment,
                          const exec::ExecPolicy& policy,
                          std::vector<NodeShard>& shards,
                          RunNode&& run_node) {
  const auto& nodes = deployment.nodes();
  shards.clear();
  shards.resize(nodes.size());
  obs::Tracer* campaign_tracer = obs::tracer();
  obs::Registry* campaign_metrics = obs::metrics();
  obs::FlightRecorder* campaign_flight = obs::flight();

  exec::ExecPolicy p = policy;
  if (p.grain == 0) p.grain = 1;  // one OTA update is a heavy item

  auto status = exec::parallel_for(
      nodes.size(), p, [&](std::size_t i, std::size_t) {
        NodeShard& shard = shards[i];
        std::optional<obs::TraceSession> trace_session;
        std::optional<obs::MetricsSession> metrics_session;
        std::optional<obs::FlightSession> flight_session;
        if (campaign_tracer != nullptr) {
          shard.trace =
              std::make_unique<obs::Tracer>(obs::Tracer::unbounded());
          trace_session.emplace(*shard.trace);
          shard.trace->set_track(nodes[i].id);
          shard.trace->name_track(nodes[i].id,
                                  "node-" + std::to_string(nodes[i].id));
        }
        if (campaign_flight != nullptr) {
          shard.flight = std::make_unique<obs::FlightRecorder>(
              obs::FlightRecorder::unbounded());
          flight_session.emplace(*shard.flight);
          shard.flight->set_node(nodes[i].id);
        }
        if (campaign_metrics != nullptr) {
          shard.metrics = std::make_unique<obs::Registry>();
          shard.metrics->enable_journal();
          metrics_session.emplace(*shard.metrics);
        }
        shard.report = run_node(nodes[i], i);
      });

  for (auto& shard : shards) {
    if (!shard.report) continue;  // node never started (cancelled)
    if (campaign_tracer != nullptr && shard.trace != nullptr) {
      campaign_tracer->absorb(*shard.trace);
      campaign_tracer->shift_base(shard.report->total_time);
      campaign_tracer->set_track(0);
    }
    if (campaign_flight != nullptr && shard.flight != nullptr) {
      campaign_flight->absorb(*shard.flight);
      campaign_flight->shift_base(shard.report->total_time);
    }
    if (campaign_metrics != nullptr && shard.metrics != nullptr)
      campaign_metrics->merge_from(*shard.metrics);
    shard.trace.reset();
    shard.metrics.reset();
    shard.flight.reset();
  }
  return status;
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

}  // namespace

CampaignResult run_campaign(const Deployment& deployment,
                            const fpga::FirmwareImage& image,
                            ota::UpdateTarget target, Rng& rng,
                            const exec::ExecPolicy& policy) {
  CampaignResult result;
  result.image_name = image.name;
  if (auto* t = obs::tracer()) t->name_track(0, "campaign");
  obs::TraceSpan campaign_span{"testbed", "campaign:" + image.name};
  ota::UpdatePlanner planner;
  // The AP compresses once; every node receives the same bytes.
  const ota::AirImage air = ota::UpdatePlanner::prepare(image);

  // One sequential draw for the whole campaign; every per-node seed is a
  // pure function of (base, node id), precomputed before dispatch.
  const std::uint64_t pass_base = exec::draw_base_seed(rng);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(deployment.nodes().size());
  for (const auto& node : deployment.nodes())
    seeds.push_back(node_link_seed(pass_base, node.id));

  std::vector<NodeShard> shards;
  result.exec_status = run_fleet(
      deployment, policy, shards,
      [&](const Node& node, std::size_t i) {
        ota::OtaLink link{ota::ota_link_params(), node.rssi, seeds[i]};
        ota::FlashModel flash;
        mcu::Msp432 mcu = mcu::baseline_firmware();
        return planner.run(air, target, node.id, link, flash, mcu);
      });

  for (auto& shard : shards) {
    if (!shard.report) continue;
    if (auto* m = obs::metrics()) {
      m->counter("testbed.nodes_attempted").add();
      if (shard.report->success) {
        m->counter("testbed.nodes_updated").add();
        m->histogram("testbed.node_time_min",
                     obs::HistogramSpec::linear(0.0, 240.0, 48))
            .observe(shard.report->total_time.value() / 60.0);
      }
    }
    result.per_node.push_back(std::move(*shard.report));
  }
  maybe_dump_flight("campaign:" + image.name,
                    result.per_node.size() - result.successes(),
                    result.exec_status);
  return result;
}

CampaignResult run_campaign(const Deployment& deployment,
                            const fpga::FirmwareImage& image,
                            ota::UpdateTarget target, Rng& rng) {
  return run_campaign(deployment, image, target, rng, exec::ExecPolicy{});
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
  if (auto* m = obs::metrics()) {
    m->counter("testbed.nodes_attempted")
        .add(static_cast<double>(entry.nodes));
    m->counter("testbed.nodes_updated")
        .add(static_cast<double>(entry.successes));
    for (const auto& r : entry.per_node) {
      if (!r.success) continue;
      m->histogram("testbed.node_time_min",
                   obs::HistogramSpec::linear(0.0, 240.0, 48))
          .observe(r.total_time.value() / 60.0);
    }
  }
  return entry;
}

std::vector<ota::UpdateReport> collect_reports(
    std::vector<NodeShard>& shards) {
  std::vector<ota::UpdateReport> reports;
  reports.reserve(shards.size());
  for (auto& s : shards)
    if (s.report) reports.push_back(std::move(*s.report));
  return reports;
}

}  // namespace

FaultCampaignResult run_fault_campaign(
    const Deployment& deployment, const fpga::FirmwareImage& image,
    ota::UpdateTarget target, const std::vector<FaultScenario>& scenarios,
    Rng& rng, const exec::ExecPolicy& policy) {
  FaultCampaignResult result;
  ota::UpdatePlanner planner;
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
    const std::uint64_t pass_base = exec::stream_seed(campaign_base, 0);
    std::vector<NodeShard> shards;
    result.exec_status = run_fleet(
        deployment, policy, shards,
        [&](const Node& node, std::size_t) {
          ota::OtaLink link{ota::ota_link_params(), node.rssi,
                            node_link_seed(pass_base, node.id)};
          ota::FlashModel flash;
          mcu::Msp432 mcu = mcu::baseline_firmware();
          return planner.run(air, target, node.id, link, flash, mcu);
        });
    result.baseline =
        summarize("baseline", collect_reports(shards), nullptr);
  }

  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    if (!result.exec_status.complete()) break;  // cancelled mid-campaign
    const FaultScenario& scenario = scenarios[k];
    obs::TraceSpan scenario_span{"testbed", "scenario:" + scenario.name};
    const std::uint64_t pass_base =
        exec::stream_seed(campaign_base, k + 1);
    std::vector<NodeShard> shards;
    result.exec_status = run_fleet(
        deployment, policy, shards,
        [&](const Node& node, std::size_t) {
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
          return planner.run(air, target, node.id, link, flash, mcu,
                             options);
        });
    result.scenarios.push_back(summarize(
        scenario.name, collect_reports(shards), &result.baseline));
  }
  std::size_t failed = result.baseline.nodes - result.baseline.successes;
  for (const auto& s : result.scenarios) failed += s.nodes - s.successes;
  maybe_dump_flight("fault-campaign:" + image.name, failed,
                    result.exec_status);
  return result;
}

FaultCampaignResult run_fault_campaign(
    const Deployment& deployment, const fpga::FirmwareImage& image,
    ota::UpdateTarget target, const std::vector<FaultScenario>& scenarios,
    Rng& rng) {
  return run_fault_campaign(deployment, image, target, scenarios, rng,
                            exec::ExecPolicy{});
}

}  // namespace tinysdr::testbed
