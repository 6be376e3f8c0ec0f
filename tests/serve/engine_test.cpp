// serve::Engine end-to-end: byte-identical results across every execution
// strategy (serial / sharded / cached / restarted), priority ordering,
// deadline checkpointing, and journal-driven resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exec/policy.hpp"
#include "phy/registry.hpp"
#include "serve/engine.hpp"

namespace tinysdr::serve {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "serve_engine_" + name;
}

/// A small but multi-PHY campaign: two sweeps and one fleet.
JobSpec small_campaign() {
  JobSpec job;
  job.name = "campaign";
  SweepSpec lora;
  lora.phy = phy::Protocol::kLora;
  lora.rssi_dbm = {-122.0, -120.0, -118.0};
  lora.trials = 6;
  lora.payload_bytes = 8;
  lora.base_seed = 9;
  lora.pad_samples = 300;
  lora.noise_figure_db = 11.5;
  job.sweeps.push_back(lora);
  SweepSpec ble;
  ble.phy = phy::Protocol::kBle;
  ble.rssi_dbm = {-96.0, -92.0};
  ble.trials = 6;
  ble.payload_bytes = 8;
  ble.base_seed = 9;
  ble.pad_samples = 0;
  ble.noise_figure_db = 4.0;
  job.sweeps.push_back(ble);
  FleetSpec fleet;
  fleet.nodes = 6;
  fleet.trials_per_node = 3;
  fleet.payload_bytes = 8;
  fleet.base_seed = 5;
  fleet.deployment_seed = 2024;
  job.fleets.push_back(fleet);
  return job;
}

std::string run_once(const EngineConfig& config, const JobSpec& job) {
  Engine engine{phy::Registry::builtin(), config};
  const auto id = engine.submit(job);
  engine.run_all();
  auto result = engine.result_json(id);
  EXPECT_TRUE(result.has_value());
  return result.value_or("");
}

TEST(Engine, SerialShardedAndCachedRunsAreByteIdentical) {
  const auto job = small_campaign();

  EngineConfig serial;
  serial.policy = exec::ExecPolicy::serial();
  const std::string serial_bytes = run_once(serial, job);
  ASSERT_FALSE(serial_bytes.empty());

  EngineConfig sharded;
  sharded.policy = exec::ExecPolicy::with_threads(8);
  EXPECT_EQ(run_once(sharded, job), serial_bytes);

  // Same engine, same job twice: the second run is all cache hits and
  // still the same bytes.
  Engine engine{phy::Registry::builtin(), sharded};
  const auto first = engine.submit(job);
  const auto second = engine.submit(job);
  engine.run_all();
  EXPECT_EQ(engine.result_json(first).value_or("a"),
            engine.result_json(second).value_or("b"));
  EXPECT_EQ(engine.result_json(first).value_or(""), serial_bytes);

  auto status = engine.status(second);
  ASSERT_TRUE(status.has_value());
  const auto points = status->cache_hits + status->cache_misses;
  ASSERT_GT(points, 0u);
  // >= 90% hit rate on resubmission (here: every sweep point hits).
  EXPECT_GE(status->cache_hits * 10, points * 9);
  EXPECT_EQ(status->cache_misses, 0u);
}

TEST(Engine, SubmitJsonValidatesAndPriorityOrdersExecution) {
  Engine engine{phy::Registry::builtin(), {}};
  std::string error;
  EXPECT_FALSE(engine.submit_json("{}", error).has_value());
  EXPECT_FALSE(error.empty());

  auto low = engine.submit_json(
      R"({"schema":"tinysdr-job-v1","name":"low","priority":1,
          "sweeps":[{"phy":"ble","rssi":[-90],"trials":2}]})",
      error);
  auto high = engine.submit_json(
      R"({"schema":"tinysdr-job-v1","name":"high","priority":5,
          "sweeps":[{"phy":"ble","rssi":[-91],"trials":2}]})",
      error);
  ASSERT_TRUE(low.has_value()) << error;
  ASSERT_TRUE(high.has_value()) << error;
  EXPECT_EQ(engine.queued(), 2u);

  // Higher priority runs first despite later submission.
  EXPECT_EQ(engine.run_next().value_or(0), *high);
  EXPECT_EQ(engine.run_next().value_or(0), *low);
  EXPECT_FALSE(engine.run_next().has_value());
}

TEST(Engine, DeadlinePartialJobIsCheckpointedAndRequeued) {
  // A deadline no machine can meet: the first attempt checkpoints any
  // finished points into the cache and the job goes back in the queue.
  EngineConfig config;
  config.policy = exec::ExecPolicy::serial();
  config.max_attempts = 2;
  Engine engine{phy::Registry::builtin(), config};

  JobSpec slow;
  slow.name = "deadline";
  SweepSpec sweep;
  sweep.phy = phy::Protocol::kLora;
  sweep.rssi_dbm = {-126.0, -124.0, -122.0, -120.0, -118.0, -116.0};
  sweep.trials = 200;
  sweep.payload_bytes = 16;
  sweep.base_seed = 77;
  sweep.pad_samples = 300;
  sweep.noise_figure_db = 11.5;
  slow.sweeps.push_back(sweep);
  slow.deadline_s = 1e-6;
  const auto id = engine.submit(slow);

  ASSERT_TRUE(engine.run_next().has_value());
  auto status = engine.status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kQueued);  // requeued, not failed
  EXPECT_EQ(status->attempts, 1u);
  EXPECT_EQ(engine.stats()["serve.jobs.requeued"], 1.0);

  // Second (final) attempt also blows the deadline: the job fails.
  ASSERT_TRUE(engine.run_next().has_value());
  status = engine.status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_FALSE(status->error.empty());
  EXPECT_FALSE(engine.result_json(id).has_value());
}

TEST(Engine, RestartedEngineResumesFromJournalsWithIdenticalBytes) {
  const std::string cache_path = temp_path("resume_cache.ndjson");
  const std::string job_path = temp_path("resume_jobs.ndjson");
  std::remove(cache_path.c_str());
  std::remove(job_path.c_str());

  const auto job = small_campaign();
  // Reference bytes from a journal-free engine.
  EngineConfig plain;
  plain.policy = exec::ExecPolicy::serial();
  const std::string reference = run_once(plain, job);

  EngineConfig journaled = plain;
  journaled.cache_journal = cache_path;
  journaled.job_journal = job_path;
  std::uint64_t finished_id = 0;
  {
    Engine engine{phy::Registry::builtin(), journaled};
    finished_id = engine.submit(job);
    engine.run_all();
    ASSERT_EQ(engine.result_json(finished_id).value_or(""), reference);
    // A second job is submitted but the "server dies" before running it.
    engine.submit(job);
  }

  Engine reborn{phy::Registry::builtin(), journaled};
  // The finished job is remembered (no bytes retained), the unfinished
  // one is back in the queue.
  auto done = reborn.status(finished_id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kDone);
  EXPECT_FALSE(done->result_retained);
  EXPECT_FALSE(reborn.result_json(finished_id).has_value());
  EXPECT_EQ(reborn.queued(), 1u);

  // Running the resumed job regenerates the reference bytes — entirely
  // from the journaled cache.
  const auto resumed_id = reborn.run_next();
  ASSERT_TRUE(resumed_id.has_value());
  EXPECT_EQ(reborn.result_json(*resumed_id).value_or(""), reference);
  auto status = reborn.status(*resumed_id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->cache_misses, 0u);
  EXPECT_GT(status->cache_hits, 0u);

  std::remove(cache_path.c_str());
  std::remove(job_path.c_str());
}

TEST(Engine, JournalIdsThatAreNotExactJobIdsCountAsCorrupt) {
  const std::string job_path = temp_path("bad_ids_jobs.ndjson");
  std::remove(job_path.c_str());
  EngineConfig journaled;
  journaled.job_journal = job_path;
  {
    Engine engine{phy::Registry::builtin(), journaled};
    ASSERT_EQ(engine.submit(small_campaign()), 1u);
  }
  {
    // Truncating 1.5 would mark job 1 done; 1e300 does not fit a uint64.
    std::FILE* f = std::fopen(job_path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"op\":\"done\",\"id\":1.5}\n"
               "{\"op\":\"done\",\"id\":1e300}\n"
               "{\"op\":\"fail\",\"id\":2.5}\n",
               f);
    std::fclose(f);
  }

  Engine reborn{phy::Registry::builtin(), journaled};
  EXPECT_EQ(reborn.stats().at("serve.journal.corrupt"), 3.0);
  auto status = reborn.status(1);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kQueued);
  EXPECT_EQ(reborn.queued(), 1u);
  std::remove(job_path.c_str());
}

TEST(Engine, KilledMidJobRestartReusesCheckpointedPoints) {
  const std::string cache_path = temp_path("partial_cache.ndjson");
  const std::string job_path = temp_path("partial_jobs.ndjson");
  std::remove(cache_path.c_str());
  std::remove(job_path.c_str());

  JobSpec job;
  job.name = "partial";
  SweepSpec sweep;
  sweep.phy = phy::Protocol::kBle;
  sweep.rssi_dbm = {-97.0, -95.0, -93.0, -91.0};
  sweep.trials = 8;
  sweep.payload_bytes = 8;
  sweep.base_seed = 13;
  sweep.pad_samples = 0;
  sweep.noise_figure_db = 4.0;
  job.sweeps.push_back(sweep);

  EngineConfig plain;
  plain.policy = exec::ExecPolicy::serial();
  const std::string reference = run_once(plain, job);

  EngineConfig journaled = plain;
  journaled.cache_journal = cache_path;
  journaled.job_journal = job_path;
  {
    // The server computes half the grid (a separate job covering two of
    // the four points — exactly what a deadline checkpoint journals),
    // then "dies" with the full campaign still queued.
    Engine engine{phy::Registry::builtin(), journaled};
    auto half = job;
    half.sweeps[0].rssi_dbm = {-97.0, -95.0};
    engine.submit(half);
    engine.run_next();
    engine.submit(job);  // the full campaign never gets to run
  }

  // The reborn server replays both journals: the checkpointed points are
  // cache hits, only the other two compute, and the merged result is
  // byte-identical to the never-interrupted reference.
  Engine reborn{phy::Registry::builtin(), journaled};
  EXPECT_EQ(reborn.queued(), 1u);
  EXPECT_EQ(reborn.cache().stats().entries, 2u);
  const auto resumed = reborn.run_next();
  ASSERT_TRUE(resumed.has_value());
  auto result = reborn.result_json(*resumed);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, reference);
  auto status = reborn.status(*resumed);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->cache_hits, 2u);
  EXPECT_EQ(status->cache_misses, 2u);

  std::remove(cache_path.c_str());
  std::remove(job_path.c_str());
}

TEST(Engine, StatsExposeServeCounters) {
  Engine engine{phy::Registry::builtin(), {}};
  std::string error;
  auto id = engine.submit_json(
      R"({"schema":"tinysdr-job-v1",
          "sweeps":[{"phy":"ble","rssi":[-90,-88],"trials":2}]})",
      error);
  ASSERT_TRUE(id.has_value()) << error;
  engine.run_all();
  auto stats = engine.stats();
  EXPECT_EQ(stats["serve.jobs.submitted"], 1.0);
  EXPECT_EQ(stats["serve.jobs.completed"], 1.0);
  EXPECT_EQ(stats["serve.cache.misses"], 2.0);
  EXPECT_EQ(stats["serve.cache.inserts"], 2.0);
  EXPECT_EQ(stats["serve.points.computed"], 2.0);
  EXPECT_EQ(stats["serve.jobs.queued"], 0.0);
}

}  // namespace
}  // namespace tinysdr::serve
