// Cross-layer telemetry guarantees:
//   - the null sink is bit-identical: a transfer with tracing/metrics
//     installed produces exactly the same UpdateOutcome as one without;
//   - traces are deterministic: same seed => byte-identical Chrome JSON;
//   - an instrumented fault campaign emits events in every expected
//     category (ota, radio, power, faults, testbed).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string_view>

#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ota/protocol.hpp"
#include "sim/faults.hpp"
#include "testbed/campaign.hpp"

namespace tinysdr {
namespace {

ota::UpdateOutcome run_transfer(bool traced, obs::Tracer* tracer,
                                obs::Registry* registry,
                                obs::FlightRecorder* flight = nullptr) {
  std::optional<obs::TraceSession> trace_session;
  std::optional<obs::MetricsSession> metrics_session;
  std::optional<obs::FlightSession> flight_session;
  if (traced) {
    trace_session.emplace(*tracer);
    metrics_session.emplace(*registry);
    if (flight != nullptr) flight_session.emplace(*flight);
  }
  std::vector<std::uint8_t> stream(8 * 1024, 0x5A);
  ota::OtaLink link{ota::ota_link_params(), Dbm{-118.0},
                    std::uint64_t{0xFEED}};
  sim::FaultPlan plan;
  plan.corrupt_rate = 0.02;
  plan.brownout_at_byte = 4 * 1024;
  sim::FaultInjector faults{plan};
  ota::TransferPolicy policy;
  policy.max_retries = 100;
  ota::AccessPoint ap;
  return ap.transfer(stream, 7, link, policy, nullptr, &faults);
}

void expect_same_outcome(const ota::UpdateOutcome& a,
                         const ota::UpdateOutcome& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.link_seed, b.link_seed);
  EXPECT_DOUBLE_EQ(a.total_time.value(), b.total_time.value());
  EXPECT_DOUBLE_EQ(a.airtime.value(), b.airtime.value());
  EXPECT_EQ(a.data_packets, b.data_packets);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.ack_packets, b.ack_packets);
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped);
  EXPECT_EQ(a.corrupted_dropped, b.corrupted_dropped);
  EXPECT_EQ(a.backoff_events, b.backoff_events);
  EXPECT_EQ(a.node_reboots, b.node_reboots);
  EXPECT_EQ(a.session_resumes, b.session_resumes);
  EXPECT_EQ(a.reassociations, b.reassociations);
  EXPECT_EQ(a.repair_rounds, b.repair_rounds);
  EXPECT_EQ(a.flash_write_errors, b.flash_write_errors);
  EXPECT_DOUBLE_EQ(a.node_energy.value(), b.node_energy.value());
  EXPECT_EQ(a.sends_per_chunk, b.sends_per_chunk);
}

TEST(Telemetry, NullSinkHasZeroObservableEffect) {
  // Untraced baseline, traced run, untraced again: all three outcomes
  // must match field for field — the instrumentation may not perturb a
  // single RNG draw or accounting step.
  auto baseline = run_transfer(false, nullptr, nullptr);
  obs::Tracer tracer;
  obs::Registry registry;
  obs::FlightRecorder flight;
  auto traced = run_transfer(true, &tracer, &registry, &flight);
  auto again = run_transfer(false, nullptr, nullptr);
  expect_same_outcome(baseline, traced);
  expect_same_outcome(baseline, again);
  // And the traced run actually recorded something.
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_GT(registry.counters().size(), 0u);
  // The flight recorder saw the injected brownout without perturbing the
  // outcome either.
  auto records = flight.records();
  EXPECT_GT(std::count_if(records.begin(), records.end(),
                          [](const obs::FlightRecord& r) {
                            return std::string_view{r.component} == "power";
                          }),
            0);
  EXPECT_GT(flight.count_at_least(obs::FlightLevel::kWarn), 0u);
}

TEST(Telemetry, FlightLogIsDeterministicForFixedSeed) {
  auto run_logged = [] {
    obs::Tracer tracer;
    obs::Registry registry;
    obs::FlightRecorder flight;
    run_transfer(true, &tracer, &registry, &flight);
    std::ostringstream out;
    flight.write_json(out, "determinism check");
    return out.str();
  };
  EXPECT_EQ(run_logged(), run_logged());
}

TEST(Telemetry, TraceIsDeterministicForFixedSeed) {
  auto run_traced = [] {
    obs::Tracer tracer;
    obs::Registry registry;
    run_transfer(true, &tracer, &registry);
    return std::pair{tracer.chrome_json(), registry.snapshot()};
  };
  auto [json_a, snap_a] = run_traced();
  auto [json_b, snap_b] = run_traced();
  EXPECT_EQ(json_a, json_b);  // byte-identical trace export
  EXPECT_EQ(snap_a, snap_b);
  EXPECT_EQ(snap_a.json(), snap_b.json());
}

TEST(Telemetry, FaultCampaignCoversAllCategories) {
  obs::Tracer tracer{std::size_t{1} << 17};
  obs::Registry registry;
  obs::TraceSession trace_session{tracer};
  obs::MetricsSession metrics_session{registry};

  Rng deploy_rng{2024};
  auto deployment = testbed::Deployment::campus(deploy_rng, Dbm{14.0}, 4);
  Rng img_rng{7};
  auto image = fpga::generate_mcu_program("fw", 12 * 1024, img_rng);

  std::vector<testbed::FaultScenario> scenarios;
  testbed::FaultScenario s;
  s.name = "mixed";
  // Burst loss guarantees link drops (the "radio" category) even on the
  // strong links of a small deployment.
  s.plan.burst = channel::GilbertElliottParams{0.05, 0.30, 0.0, 0.9};
  s.plan.corrupt_rate = 0.05;
  s.plan.brownout_at_byte = 1024;
  s.policy.max_retries = 200;
  scenarios.push_back(s);

  Rng rng{99};
  auto result = testbed::run_fault_campaign(
      deployment, image, ota::UpdateTarget::kMcu, scenarios, rng);
  ASSERT_EQ(result.scenarios.size(), 1u);

  for (const char* cat : {"ota", "radio", "power", "faults", "testbed"}) {
    EXPECT_GT(tracer.count_category(cat), 0u) << cat;
  }
  // The campaign-level metrics fed by the instrumented layers.
  EXPECT_GT(registry.counters().at("ota.transfers").value(), 0.0);
  EXPECT_GT(registry.counters().at("testbed.nodes_attempted").value(), 0.0);

  // The trace parses as a JSON document with per-node thread tracks.
  auto doc = obs::JsonValue::parse(tracer.chrome_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find("traceEvents")->is_array());
}

TEST(Telemetry, DeploymentMetricsExport) {
  Rng rng{11};
  auto deployment = testbed::Deployment::campus(rng, Dbm{14.0}, 8);
  obs::Registry registry;
  deployment.export_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.gauges().at("testbed.nodes").value(), 8.0);
  EXPECT_EQ(registry.histograms().at("testbed.node_rssi_dbm").count(), 8u);
  std::size_t visited = 0;
  deployment.for_each_node([&](const testbed::Node&) { ++visited; });
  EXPECT_EQ(visited, 8u);
}

}  // namespace
}  // namespace tinysdr
