// Byte pins of the telemetry an OTA campaign exports: the FNV-1a digest of
// the Chrome trace JSON, the metrics JSON and the flight-recorder JSON for
// seeded runs:
//   - A fault campaign whose scenarios fire every node event the OTA stack
//     reports (brownout reboot, session resume, flash write error, watchdog
//     reset) and every attacker hook (jam, forged ACK, truncation, replay,
//     rollback push).
//   - A plain campaign, and a plain and a fault campaign over a fleet of
//     no nodes. The campus deployment keeps every node 3 dB above the
//     backbone link's sensitivity, so a plain campaign cannot fail a node;
//     the empty fleet is its run with no success. The two campaigns differ
//     there: a plain campaign creates a testbed.* node counter only once
//     it counts something, a fault campaign always creates both.
// The two non-empty runs are also checked at one and four threads, and
// the events they must hold are counted, so a pin can only hold if the
// events fired.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "adversary/ota_attacker.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testbed/campaign.hpp"

namespace tinysdr::testbed {
namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Telemetry {
  std::string trace, metrics, flight;
  obs::Registry registry;
};

template <typename Run>
Telemetry capture(Run&& run) {
  Telemetry out;
  obs::Tracer tracer;
  obs::FlightRecorder flight;
  {
    obs::MetricsSession m{out.registry};
    obs::TraceSession t{tracer};
    obs::FlightSession f{flight};
    run();
  }
  // A pin covers every event only if none was dropped.
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(flight.dropped(), 0u);
  out.trace = tracer.chrome_json();
  out.metrics = out.registry.json();
  std::ostringstream flight_json;
  flight.write_json(flight_json);
  out.flight = flight_json.str();
  return out;
}

double counter(const Telemetry& t, const std::string& name) {
  auto it = t.registry.counters().find(name);
  return it == t.registry.counters().end() ? 0.0 : it->second.value();
}

std::vector<FaultScenario> event_scenarios() {
  std::vector<FaultScenario> s(5);
  s[0].name = "brownout";
  s[0].plan.brownout_at_byte = 1024;
  s[1].name = "staging-flash-faults";
  s[1].plan.page_program_failure_rate = 0.05;
  s[1].plan.flash_fault_region = sim::FlashRegion{
      ota::NodeAgent::kStagingBase, ota::NodeAgent::kStagingCapacity};
  // Long loss bursts starve the node of packets for longer than its
  // watchdog period.
  s[2].name = "long-bursts";
  s[2].plan.burst = channel::GilbertElliottParams{0.02, 0.01, 0.0, 1.0};
  s[2].policy.max_retries = 60;
  adversary::OtaAttackPlan attack;
  attack.jam_rate = 0.08;
  attack.forge_ack_rate = 0.05;
  attack.truncate_rate = 0.05;
  attack.replay_rate = 0.08;
  s[3].name = "attacked";
  s[3].policy.max_retries = 200;
  s[3].make_attacker = adversary::attacker_factory(attack);
  s[4].name = "rollback-push";
  s[4].image_version = 1;
  s[4].fleet_version = 2;
  return s;
}

Telemetry fault_campaign(std::size_t threads) {
  Rng deploy_rng{31};
  const Deployment deployment = Deployment::campus(deploy_rng, Dbm{14.0}, 4);
  Rng img_rng{32};
  const auto image = fpga::generate_mcu_program("pin_fw", 12 * 1024, img_rng);
  return capture([&] {
    Rng rng{33};
    (void)run_fault_campaign(deployment, image, ota::UpdateTarget::kMcu,
                             event_scenarios(), rng,
                             exec::ExecPolicy::with_threads(threads));
  });
}

Telemetry plain_campaign(std::size_t nodes, std::size_t threads) {
  Rng deploy_rng{41};
  const Deployment deployment =
      Deployment::campus(deploy_rng, Dbm{14.0}, nodes);
  Rng img_rng{42};
  const auto image = fpga::generate_mcu_program("pin_fw", 4 * 1024, img_rng);
  return capture([&] {
    Rng rng{43};
    auto result = run_campaign(deployment, image, ota::UpdateTarget::kMcu,
                               rng, exec::ExecPolicy::with_threads(threads));
    EXPECT_EQ(result.successes(), nodes);
  });
}

Telemetry empty_fault_campaign() {
  Rng deploy_rng{51};
  const Deployment deployment = Deployment::campus(deploy_rng, Dbm{14.0}, 0);
  Rng img_rng{52};
  const auto image = fpga::generate_mcu_program("pin_fw", 4 * 1024, img_rng);
  return capture([&] {
    Rng rng{53};
    (void)run_fault_campaign(deployment, image, ota::UpdateTarget::kMcu,
                             event_scenarios(), rng);
  });
}

void expect_digests(const Telemetry& t, std::uint64_t trace,
                    std::uint64_t metrics, std::uint64_t flight) {
  EXPECT_EQ(fnv1a(t.trace), trace) << fnv1a(t.trace) << "ull";
  EXPECT_EQ(fnv1a(t.metrics), metrics) << fnv1a(t.metrics) << "ull";
  EXPECT_EQ(fnv1a(t.flight), flight) << fnv1a(t.flight) << "ull";
}

TEST(TelemetryPins, FaultCampaignFiresEveryNodeEvent) {
  const Telemetry t = fault_campaign(4);
  EXPECT_GT(counter(t, "power.node_reboots"), 0.0);
  EXPECT_GT(counter(t, "ota.session_resumes"), 0.0);
  EXPECT_GT(counter(t, "ota.flash_write_errors"), 0.0);
  EXPECT_GT(counter(t, "power.watchdog_resets"), 0.0);
  EXPECT_GT(counter(t, "adversary.ota.jammed_packet"), 0.0);
  EXPECT_GT(counter(t, "adversary.ota.forged_ack_discarded"), 0.0);
  EXPECT_GT(counter(t, "adversary.ota.truncated_dropped"), 0.0);
  EXPECT_GT(counter(t, "adversary.ota.replay_dropped"), 0.0);
  EXPECT_GT(counter(t, "adversary.ota.rollback_rejected"), 0.0);
  expect_digests(t, 16805733317597508203ull, 2982120838708047924ull,
                 9578339432908673118ull);

  const Telemetry serial = fault_campaign(1);
  EXPECT_EQ(serial.trace, t.trace);
  EXPECT_EQ(serial.metrics, t.metrics);
  EXPECT_EQ(serial.flight, t.flight);
}

TEST(TelemetryPins, PlainCampaign) {
  const Telemetry t = plain_campaign(3, 4);
  EXPECT_EQ(counter(t, "testbed.nodes_attempted"), 3.0);
  EXPECT_EQ(counter(t, "testbed.nodes_updated"), 3.0);
  expect_digests(t, 7938240231032932538ull, 16232463738762691337ull,
                 15791904521943652159ull);

  const Telemetry serial = plain_campaign(3, 1);
  EXPECT_EQ(serial.trace, t.trace);
  EXPECT_EQ(serial.metrics, t.metrics);
  EXPECT_EQ(serial.flight, t.flight);
}

TEST(TelemetryPins, EmptyFleetNodeCountersDependOnTheCampaign) {
  const Telemetry plain = plain_campaign(0, 2);
  EXPECT_EQ(plain.registry.counters().count("testbed.nodes_attempted"), 0u);
  EXPECT_EQ(plain.registry.counters().count("testbed.nodes_updated"), 0u);
  expect_digests(plain, 15831531017066805533ull, 3216551121304231792ull,
                 1278723388968305652ull);

  const Telemetry fault = empty_fault_campaign();
  EXPECT_EQ(fault.registry.counters().count("testbed.nodes_attempted"), 1u);
  EXPECT_EQ(fault.registry.counters().count("testbed.nodes_updated"), 1u);
  EXPECT_EQ(counter(fault, "testbed.nodes_updated"), 0.0);
  expect_digests(fault, 5712524092162242431ull, 12927838432086521497ull,
                 1278723388968305652ull);
}

}  // namespace
}  // namespace tinysdr::testbed
