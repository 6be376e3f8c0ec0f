// serve::Engine — the campaign server's core, usable with no sockets.
//
// The engine owns the job queue (priority + submission order), the
// content-addressed sweep-point cache, and the execution path: each job's
// sweeps run through phy::LinkSimulator sharded across exec::WorkerPool,
// each fleet through testbed::run_phy_campaign, under the job's wall-clock
// deadline. Because point seeds are grid-independent and cached points are
// byte-identical to fresh ones, a job's tinysdr-result-v1 JSON is the same
// bytes whether it ran serially, sharded, through the daemon, mostly from
// cache, or resumed after a restart.
//
// Persistence is two append-only journals: the cache journal (see
// cache.hpp) and a job journal of submit/done/fail lines. A restarted
// engine replays both — finished jobs are remembered (their result bytes
// are not retained; resubmitting regenerates them from cache, which is
// ~free), unfinished jobs are re-queued, and any sweep points a killed
// run already computed come back as cache hits.
//
// Thread-safety: every public method may be called from any thread. One
// worker (the daemon's runner thread, or a test calling run_next) executes
// at most one job at a time; the job's internal parallelism comes from the
// exec pool.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/policy.hpp"
#include "serve/cache.hpp"
#include "serve/job.hpp"

namespace tinysdr::phy {
class Registry;
}

namespace tinysdr::serve {

struct EngineConfig {
  std::size_t cache_bytes = std::size_t{64} << 20;
  /// Journal paths; empty disables persistence.
  std::string cache_journal;
  std::string job_journal;
  /// A deadline-partial job re-queues this many times before failing.
  std::size_t max_attempts = 3;
  /// Execution policy for job parallel regions (threads, cancellation,
  /// deadline).
  exec::ExecPolicy policy{};
};

enum class JobState { kQueued, kRunning, kDone, kFailed };

[[nodiscard]] const char* to_string(JobState state);

struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::size_t attempts = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// False for a job finished before a restart: completion is remembered
  /// in the journal but the result bytes are not; resubmit to regenerate.
  bool result_retained = false;
  std::string error;  ///< non-empty iff kFailed
};

class Engine {
 public:
  explicit Engine(const phy::Registry& registry, EngineConfig config = {});

  /// Enqueue a validated job; returns its id (1-based, submission order,
  /// including jobs replayed from the journal).
  std::uint64_t submit(JobSpec job);

  /// Parse + validate + enqueue a tinysdr-job-v1 document.
  [[nodiscard]] std::optional<std::uint64_t> submit_json(
      std::string_view json, std::string& error);

  /// Execute the best queued job (highest priority, then lowest id).
  /// Returns its id, or nullopt when the queue is empty.
  std::optional<std::uint64_t> run_next();

  /// Drain the queue; returns the number of jobs executed (re-queued
  /// deadline-partial jobs count once per attempt).
  std::size_t run_all();

  /// Block until a job is queued or `timeout` elapses; true when work is
  /// available. The daemon's runner thread idles here.
  bool wait_for_job(std::chrono::milliseconds timeout);

  [[nodiscard]] std::optional<JobStatus> status(std::uint64_t id) const;
  /// The finished job's result document bytes; nullopt unless kDone with
  /// a retained result.
  [[nodiscard]] std::optional<std::string> result_json(std::uint64_t id) const;

  /// serve.* counters as a deterministic name->value map (cache hit/miss/
  /// evict/corrupt, job and point tallies).
  [[nodiscard]] std::map<std::string, double> stats() const;

  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] const SweepCache& cache() const { return cache_; }

 private:
  struct JobRecord {
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::size_t attempts = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    bool result_retained = false;
    std::string error;
    std::optional<JobResult> result;
  };

  struct RunTally {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t computed = 0;  ///< points actually run (and now cached)
    bool complete = true;
  };

  /// Execute one sweep: cached points filled from the cache, missing ones
  /// run (sharded) and inserted. `budget` is the job's remaining
  /// wall-clock; incomplete runs still cache every finished point.
  SweepResult run_sweep(const SweepSpec& spec,
                        std::optional<Seconds> budget, RunTally* tally);

  void append_job_journal(const std::string& line);
  std::size_t replay_job_journal(const std::string& path);
  std::uint64_t submit_locked(JobSpec job, bool journal);

  const phy::Registry* registry_;
  EngineConfig config_;
  SweepCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, JobRecord> jobs_;
  std::ofstream job_journal_;
  // serve.jobs.* / serve.points.* tallies (cache keeps its own).
  std::uint64_t jobs_submitted_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_failed_ = 0;
  std::uint64_t jobs_requeued_ = 0;
  std::uint64_t journal_corrupt_ = 0;
  std::uint64_t points_computed_ = 0;
  std::uint64_t points_cached_ = 0;
};

}  // namespace tinysdr::serve
