// Flight-recorder integration with the campaign runners: a fleet run
// that hits injected faults must leave a schema-valid post-mortem dump
// behind, a clean run must not, and the merged flight log must be
// byte-identical between serial and parallel execution.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "exec/policy.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "testbed/campaign.hpp"

namespace tinysdr::testbed {
namespace {

fpga::FirmwareImage small_image() {
  Rng rng{99};
  return fpga::generate_mcu_program("flight_fw", 10 * 1024, rng);
}

FaultScenario brownout_scenario() {
  FaultScenario s;
  s.name = "mid-transfer-brownout";
  s.plan.brownout_at_byte = 1024;  // inside the ~3 kB compressed stream
  return s;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FlightCampaign, InjectedFaultProducesSchemaValidDump) {
  const std::string path =
      testing::TempDir() + "tinysdr_flight_campaign_dump.json";
  std::remove(path.c_str());

  Rng deploy_rng{21};
  auto deployment = Deployment::campus(deploy_rng, Dbm{14.0}, 4);
  auto image = small_image();

  obs::FlightRecorder flight;
  flight.set_dump_path(path);
  {
    obs::FlightSession session{flight};
    Rng rng{22};
    auto result = run_fault_campaign(deployment, image,
                                     ota::UpdateTarget::kMcu,
                                     {brownout_scenario()}, rng);
    // Every node browned out once, so the recorder holds fault records
    // and the campaign must have dumped on exit.
    ASSERT_EQ(result.scenarios.size(), 1u);
    EXPECT_EQ(result.scenarios[0].total_reboots, 4u);
  }

  std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << "campaign did not write a flight dump";
  auto doc = obs::JsonValue::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->text, "tinysdr-flight-v1");
  EXPECT_NE(doc->find("reason")->text.find("fault-campaign:flight_fw"),
            std::string::npos);

  const obs::JsonValue* records = doc->find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_FALSE(records->items.empty());
  std::set<double> nodes_seen;
  std::size_t brownouts = 0;
  for (const auto& rec : records->items) {
    nodes_seen.insert(rec.find("node")->number);
    if (rec.find("message")->text == "brownout-reboot") ++brownouts;
  }
  // One brownout per node in the fault pass, attributed to its node id.
  EXPECT_EQ(brownouts, 4u);
  EXPECT_EQ(nodes_seen.size(), 4u);
  std::remove(path.c_str());
}

TEST(FlightCampaign, CleanCampaignLeavesNoDump) {
  const std::string path =
      testing::TempDir() + "tinysdr_flight_campaign_clean.json";
  std::remove(path.c_str());

  Rng deploy_rng{23};
  auto deployment = Deployment::campus(deploy_rng, Dbm{14.0}, 4);
  auto image = small_image();

  obs::FlightRecorder flight;
  flight.set_dump_path(path);
  {
    obs::FlightSession session{flight};
    Rng rng{24};
    auto result =
        run_campaign(deployment, image, ota::UpdateTarget::kMcu, rng);
    ASSERT_EQ(result.successes(), 4u);
  }
  EXPECT_EQ(flight.count_at_least(obs::FlightLevel::kWarn), 0u);
  std::ifstream in{path};
  EXPECT_FALSE(in.good()) << "clean campaign wrote an unexpected dump";
}

TEST(FlightCampaign, SerialAndParallelFlightLogsAreByteIdentical) {
  Rng deploy_rng{25};
  auto deployment = Deployment::campus(deploy_rng, Dbm{14.0}, 8);
  auto image = small_image();

  auto run_with = [&](const exec::ExecPolicy& policy) {
    obs::FlightRecorder flight;
    obs::FlightSession session{flight};
    Rng rng{26};
    auto result =
        run_fault_campaign(deployment, image, ota::UpdateTarget::kMcu,
                           {brownout_scenario()}, rng, policy);
    EXPECT_EQ(result.scenarios[0].nodes, 8u);
    std::ostringstream out;
    flight.write_json(out, "identity check");
    return out.str();
  };

  std::string serial = run_with(exec::ExecPolicy::serial());
  std::string parallel = run_with(exec::ExecPolicy::with_threads(4));
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace tinysdr::testbed
