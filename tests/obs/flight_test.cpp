#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "exec/cancel.hpp"
#include "exec/parallel_for.hpp"
#include "obs/json.hpp"

namespace tinysdr::obs {
namespace {

std::size_t count_component(const FlightRecorder& r,
                            std::string_view component) {
  std::size_t n = 0;
  for (const auto& rec : r.records())
    if (component == rec.component) ++n;
  return n;
}

TEST(FlightRecorder, NullSinkByDefault) {
  EXPECT_EQ(flight(), nullptr);
  // dump_flight against the null sink is a no-op, not a crash.
  EXPECT_TRUE(dump_flight("nothing installed").empty());
}

TEST(FlightRecorder, SessionInstallsAndRestores) {
  FlightRecorder a, b;
  EXPECT_EQ(flight(), nullptr);
  {
    FlightSession sa{a};
    EXPECT_EQ(flight(), &a);
    {
      FlightSession sb{b};
      EXPECT_EQ(flight(), &b);
    }
    EXPECT_EQ(flight(), &a);
  }
  EXPECT_EQ(flight(), nullptr);
}

TEST(FlightRecorder, RecordsWithSimTimestampsNodeAndLevel) {
  FlightRecorder r;
  r.set_node(37);
  r.set_time(Seconds{0.002});
  r.record(FlightLevel::kWarn, "power", "brownout-reboot",
           {TraceArg::num("bytes_received", 2048.0)});
  r.set_time(Seconds{0.004});
  r.record(FlightLevel::kInfo, "ota", "session-resume");
  auto records = r.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].ts_us, 2000.0);
  EXPECT_EQ(records[0].level, FlightLevel::kWarn);
  EXPECT_EQ(records[0].node, 37u);
  EXPECT_STREQ(records[0].component, "power");
  EXPECT_EQ(records[0].message, "brownout-reboot");
  ASSERT_EQ(records[0].args.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].args[0].number, 2048.0);
  EXPECT_DOUBLE_EQ(records[1].ts_us, 4000.0);
}

TEST(FlightRecorder, RingDropsOldest) {
  FlightRecorder r{4};
  for (int i = 0; i < 7; ++i)
    r.record(FlightLevel::kInfo, "test", "m" + std::to_string(i));
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.capacity(), 4u);
  EXPECT_EQ(r.dropped(), 3u);
  auto records = r.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].message, "m3");
  EXPECT_EQ(records[3].message, "m6");
}

TEST(FlightRecorder, CountComponentAndLevelFloor) {
  FlightRecorder r;
  r.record(FlightLevel::kDebug, "a", "d");
  r.record(FlightLevel::kInfo, "a", "i");
  r.record(FlightLevel::kWarn, "b", "w");
  r.record(FlightLevel::kError, "b", "e");
  EXPECT_EQ(count_component(r, "a"), 2u);
  EXPECT_EQ(count_component(r, "b"), 2u);
  EXPECT_EQ(r.count_at_least(FlightLevel::kDebug), 4u);
  EXPECT_EQ(r.count_at_least(FlightLevel::kWarn), 2u);
  EXPECT_EQ(r.count_at_least(FlightLevel::kError), 1u);
}

TEST(FlightRecorder, AbsorbOffsetsShardTimestamps) {
  // Two shards recorded against base 0, merged in node order with the
  // campaign pattern: absorb, then shift_base by the shard's duration.
  auto shard = [](std::uint32_t node, const char* msg) {
    FlightRecorder s;
    s.set_node(node);
    s.set_time(Seconds{1.0});
    s.record(FlightLevel::kInfo, "ota", msg);
    return s;
  };
  FlightRecorder a = shard(1, "first");
  FlightRecorder b = shard(2, "second");

  FlightRecorder campaign;
  campaign.absorb(a);
  campaign.shift_base(Seconds{10.0});
  campaign.absorb(b);
  campaign.shift_base(Seconds{10.0});

  auto records = campaign.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].ts_us, 1e6);
  EXPECT_EQ(records[0].node, 1u);
  EXPECT_DOUBLE_EQ(records[1].ts_us, 11e6);  // laid after the first shard
  EXPECT_EQ(records[1].node, 2u);
}

TEST(FlightRecorder, AbsorbIntoBoundedRingAppliesSerialDropSemantics) {
  FlightRecorder shard;
  for (int i = 0; i < 6; ++i)
    shard.record(FlightLevel::kInfo, "t", "m" + std::to_string(i));
  EXPECT_EQ(shard.dropped(), 0u);

  FlightRecorder campaign{4};
  campaign.absorb(shard);
  EXPECT_EQ(campaign.size(), 4u);
  EXPECT_EQ(campaign.dropped(), 2u);
  EXPECT_EQ(campaign.records()[0].message, "m2");
}

TEST(FlightRecorder, JsonIsSchemaValidAndDeterministic) {
  auto build = [] {
    FlightRecorder r;
    r.set_node(3);
    r.set_time(Seconds{0.5});
    r.record(FlightLevel::kError, "ota", "update-failed: retry-budget",
             {TraceArg::num("retransmissions", 9.0),
              TraceArg::str("note", "quo\"te\n")});
    std::ostringstream out;
    r.write_json(out, "campaign: 1 node(s) failed");
    return out.str();
  };
  std::string a = build();
  EXPECT_EQ(a, build());  // byte-identical across identical runs

  auto doc = JsonValue::parse(a);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->text, "tinysdr-flight-v1");
  EXPECT_EQ(doc->find("reason")->text, "campaign: 1 node(s) failed");
  const JsonValue* records = doc->find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items.size(), 1u);
  const JsonValue& rec = records->items[0];
  EXPECT_EQ(rec.find("level")->text, "error");
  EXPECT_DOUBLE_EQ(rec.find("node")->number, 3.0);
  EXPECT_EQ(rec.find("component")->text, "ota");
  EXPECT_EQ(rec.find("message")->text, "update-failed: retry-budget");
  EXPECT_DOUBLE_EQ(rec.find("args")->find("retransmissions")->number, 9.0);
}

TEST(FlightRecorder, DumpFlightWritesConfiguredPath) {
  std::string path =
      testing::TempDir() + "tinysdr_flight_dump_test.json";
  std::remove(path.c_str());
  FlightRecorder r;
  r.set_dump_path(path);
  r.record(FlightLevel::kWarn, "sim", "fault-fired");
  {
    FlightSession session{r};
    EXPECT_EQ(dump_flight("test reason"), path);
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = JsonValue::parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("reason")->text, "test reason");
  EXPECT_EQ(doc->find("records")->items.size(), 1u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpFlightNoopWithoutPath) {
  FlightRecorder r;
  r.record(FlightLevel::kError, "t", "boom");
  FlightSession session{r};
  // No dump path configured and (in this test) no env override: nowhere
  // to write, so nothing is written.
  if (std::getenv("TINYSDR_FLIGHT_DUMP") == nullptr) {
    EXPECT_TRUE(dump_flight("no sink").empty());
  }
}

TEST(FlightRecorder, CancelledExecRegionLeavesAWarnRecord) {
  FlightRecorder r;
  FlightSession session{r};
  exec::CancellationSource source;
  source.cancel();  // pre-cancelled: the region stops before any item
  exec::ExecPolicy policy = exec::ExecPolicy::serial();
  policy.cancel = source.token();
  auto status = exec::parallel_for(64, policy, [](std::size_t) {});
  EXPECT_FALSE(status.complete());
  EXPECT_EQ(count_component(r, "exec"), 1u);
  EXPECT_EQ(r.count_at_least(FlightLevel::kWarn), 1u);
  EXPECT_EQ(r.records()[0].message, "cancelled");
}

TEST(FlightRecorder, CompleteExecRegionStaysSilent) {
  FlightRecorder r;
  FlightSession session{r};
  auto status = exec::parallel_for(64, exec::ExecPolicy::serial(),
                                   [](std::size_t) {});
  EXPECT_TRUE(status.complete());
  EXPECT_EQ(r.size(), 0u);
}

}  // namespace
}  // namespace tinysdr::obs
