#include "serve/engine.hpp"

#include <exception>
#include <utility>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "phy/registry.hpp"
#include "testbed/deployment.hpp"

namespace tinysdr::serve {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

Engine::Engine(const phy::Registry& registry, EngineConfig config)
    : registry_(&registry),
      config_(std::move(config)),
      cache_(config_.cache_bytes) {
  if (!config_.cache_journal.empty())
    cache_.attach_journal(config_.cache_journal);
  if (!config_.job_journal.empty()) {
    replay_job_journal(config_.job_journal);
    job_journal_.open(config_.job_journal, std::ios::app);
  }
}

std::uint64_t Engine::submit(JobSpec job) {
  std::uint64_t id = 0;
  {
    std::scoped_lock lock{mu_};
    id = submit_locked(std::move(job), /*journal=*/true);
  }
  work_cv_.notify_all();
  return id;
}

std::optional<std::uint64_t> Engine::submit_json(std::string_view json,
                                                 std::string& error) {
  auto job = parse_job(json, error);
  if (!job) return std::nullopt;
  return submit(std::move(*job));
}

std::uint64_t Engine::submit_locked(JobSpec job, bool journal) {
  JobRecord record;
  record.id = next_id_++;
  record.spec = std::move(job);
  ++jobs_submitted_;
  if (journal && job_journal_.is_open()) {
    job_journal_ << "{\"op\":\"submit\",\"job\":"
                 << record.spec.canonical_json() << "}\n";
    job_journal_.flush();
  }
  const std::uint64_t id = record.id;
  jobs_.emplace(id, std::move(record));
  return id;
}

bool Engine::wait_for_job(std::chrono::milliseconds timeout) {
  std::unique_lock lock{mu_};
  return work_cv_.wait_for(lock, timeout, [this] {
    for (const auto& [id, r] : jobs_)
      if (r.state == JobState::kQueued) return true;
    return false;
  });
}

SweepResult Engine::run_sweep(const SweepSpec& spec,
                              std::optional<Seconds> budget,
                              RunTally* tally) {
  const phy::RegisteredPhy& entry = registry_->at(spec.phy);
  const std::size_t pad = spec.pad_samples.value_or(entry.pad_samples);
  const double nf =
      spec.noise_figure_db.value_or(entry.system_noise_figure_db);

  SweepResult out;
  out.points.resize(spec.rssi_dbm.size());

  // Cache pass: every point's key is pure in (phy, plan, point seed) —
  // where the point sits in this (or any other) grid is irrelevant.
  std::vector<std::size_t> missed;
  std::vector<phy::SweepPoint> missed_points;
  std::vector<std::string> missed_keys;
  for (std::size_t i = 0; i < spec.rssi_dbm.size(); ++i) {
    const std::uint64_t pseed =
        phy::LinkSimulator::point_seed(spec.base_seed, spec.rssi_dbm[i]);
    std::string key = point_cache_key(entry.name, pseed, spec.trials,
                                      spec.payload_bytes, pad, nf);
    if (auto cached = cache_.lookup(key)) {
      out.points[i] = *cached;
      ++tally->hits;
      continue;
    }
    ++tally->misses;
    missed.push_back(i);
    missed_points.push_back({Dbm{spec.rssi_dbm[i]}, std::nullopt});
    missed_keys.push_back(std::move(key));
  }
  if (missed.empty()) return out;

  if (budget && !(budget->value() > 0.0)) {
    tally->complete = false;  // out of time before the region started
    return out;
  }

  auto tx = entry.make_tx();
  auto rx = entry.make_rx();
  phy::TrialPlan plan;
  plan.trials = spec.trials;
  plan.payload_bytes = spec.payload_bytes;
  plan.pad_samples = pad;
  plan.noise_figure_db = nf;
  plan.base_seed = spec.base_seed;
  phy::LinkSimulator sim{*tx, *rx, plan};

  exec::ExecPolicy policy = config_.policy;
  if (budget) policy = policy.with_budget(*budget);

  std::vector<phy::PointResult> fresh;
  exec::RunStatus status = sim.sweep(missed_points, fresh, policy);

  // Every finished point is cached (and journaled) even when the region
  // hit its deadline — that checkpoint is what a resumed run picks up.
  for (std::size_t k = 0; k < missed.size(); ++k) {
    if (fresh[k].frames == 0) continue;  // skipped by the deadline
    out.points[missed[k]] = fresh[k];
    cache_.insert(missed_keys[k], fresh[k]);
    ++tally->computed;
  }
  if (!status.complete()) tally->complete = false;
  return out;
}

std::optional<std::uint64_t> Engine::run_next() {
  JobSpec spec;
  std::uint64_t id = 0;
  {
    std::scoped_lock lock{mu_};
    const JobRecord* best = nullptr;
    for (const auto& [jid, r] : jobs_) {
      if (r.state != JobState::kQueued) continue;
      if (best == nullptr || r.spec.priority > best->spec.priority ||
          (r.spec.priority == best->spec.priority && jid < best->id))
        best = &r;
    }
    if (best == nullptr) return std::nullopt;
    id = best->id;
    JobRecord& record = jobs_.at(id);
    record.state = JobState::kRunning;
    ++record.attempts;
    spec = record.spec;
  }

  const auto start = Clock::now();
  auto remaining = [&]() -> std::optional<Seconds> {
    if (!spec.deadline_s) return std::nullopt;
    return Seconds{*spec.deadline_s - elapsed_s(start)};
  };

  RunTally tally;
  JobResult result;
  result.job = spec;
  std::string error;
  try {
    for (const SweepSpec& sweep : spec.sweeps)
      result.sweeps.push_back(run_sweep(sweep, remaining(), &tally));
    for (const FleetSpec& fleet : spec.fleets) {
      auto budget = remaining();
      FleetResult fr;
      if (budget && !(budget->value() > 0.0)) {
        tally.complete = false;
      } else {
        testbed::PhyCampaignConfig cfg;
        cfg.trials_per_node = fleet.trials_per_node;
        cfg.payload_bytes = fleet.payload_bytes;
        cfg.base_seed = fleet.base_seed;
        cfg.only_protocol = fleet.phy;
        Rng deploy_rng{fleet.deployment_seed};
        auto deployment =
            testbed::Deployment::campus(deploy_rng, Dbm{14.0}, fleet.nodes);
        exec::ExecPolicy policy = config_.policy;
        if (budget) policy = policy.with_budget(*budget);
        auto campaign =
            testbed::run_phy_campaign(deployment, *registry_, cfg, policy);
        if (campaign.exec_status.complete())
          fr.per_node = std::move(campaign.per_node);
        else
          tally.complete = false;  // fleets have no point cache; rerun whole
      }
      result.fleets.push_back(std::move(fr));
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::scoped_lock lock{mu_};
  JobRecord& record = jobs_.at(id);
  record.cache_hits += tally.hits;
  record.cache_misses += tally.misses;
  points_cached_ += tally.hits;
  points_computed_ += tally.computed;

  if (!error.empty()) {
    record.state = JobState::kFailed;
    record.error = error;
    ++jobs_failed_;
    append_job_journal("{\"op\":\"fail\",\"id\":" + std::to_string(id) +
                       ",\"error\":" + obs::json_quote(error) + "}");
  } else if (tally.complete) {
    record.state = JobState::kDone;
    record.result = std::move(result);
    record.result_retained = true;
    ++jobs_completed_;
    append_job_journal("{\"op\":\"done\",\"id\":" + std::to_string(id) + "}");
  } else if (record.attempts >= config_.max_attempts) {
    record.state = JobState::kFailed;
    record.error = "deadline exceeded after " +
                   std::to_string(record.attempts) + " attempts";
    ++jobs_failed_;
    append_job_journal("{\"op\":\"fail\",\"id\":" + std::to_string(id) +
                       ",\"error\":" + obs::json_quote(record.error) + "}");
  } else {
    // Checkpointed to the cache; back in the queue for another slice.
    record.state = JobState::kQueued;
    ++jobs_requeued_;
    work_cv_.notify_all();
  }
  return id;
}

std::size_t Engine::run_all() {
  std::size_t ran = 0;
  while (run_next()) ++ran;
  return ran;
}

std::optional<JobStatus> Engine::status(std::uint64_t id) const {
  std::scoped_lock lock{mu_};
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const JobRecord& r = it->second;
  JobStatus s;
  s.id = r.id;
  s.state = r.state;
  s.attempts = r.attempts;
  s.cache_hits = r.cache_hits;
  s.cache_misses = r.cache_misses;
  s.result_retained = r.result_retained;
  s.error = r.error;
  return s;
}

std::optional<std::string> Engine::result_json(std::uint64_t id) const {
  std::scoped_lock lock{mu_};
  auto it = jobs_.find(id);
  if (it == jobs_.end() || !it->second.result) return std::nullopt;
  return it->second.result->json();
}

std::map<std::string, double> Engine::stats() const {
  const CacheStats c = cache_.stats();
  std::map<std::string, double> out;
  out["serve.cache.hits"] = static_cast<double>(c.hits);
  out["serve.cache.misses"] = static_cast<double>(c.misses);
  out["serve.cache.inserts"] = static_cast<double>(c.inserts);
  out["serve.cache.evictions"] = static_cast<double>(c.evictions);
  out["serve.cache.corrupt"] = static_cast<double>(c.corrupt);
  out["serve.cache.entries"] = static_cast<double>(c.entries);
  out["serve.cache.bytes"] = static_cast<double>(c.bytes);

  std::scoped_lock lock{mu_};
  std::size_t queued = 0;
  for (const auto& [id, r] : jobs_)
    if (r.state == JobState::kQueued) ++queued;
  out["serve.jobs.submitted"] = static_cast<double>(jobs_submitted_);
  out["serve.jobs.completed"] = static_cast<double>(jobs_completed_);
  out["serve.jobs.failed"] = static_cast<double>(jobs_failed_);
  out["serve.jobs.requeued"] = static_cast<double>(jobs_requeued_);
  out["serve.jobs.queued"] = static_cast<double>(queued);
  out["serve.journal.corrupt"] = static_cast<double>(journal_corrupt_);
  out["serve.points.computed"] = static_cast<double>(points_computed_);
  out["serve.points.cached"] = static_cast<double>(points_cached_);
  return out;
}

std::size_t Engine::queued() const {
  std::scoped_lock lock{mu_};
  std::size_t n = 0;
  for (const auto& [id, r] : jobs_)
    if (r.state == JobState::kQueued) ++n;
  return n;
}

void Engine::append_job_journal(const std::string& line) {
  if (!job_journal_.is_open()) return;
  job_journal_ << line << "\n";
  job_journal_.flush();
}

std::size_t Engine::replay_job_journal(const std::string& path) {
  std::ifstream in{path};
  std::string line;
  std::size_t applied = 0;
  std::scoped_lock lock{mu_};
  while (in && std::getline(in, line)) {
    if (line.empty()) continue;
    auto doc = obs::JsonValue::parse(line);
    if (!doc || !doc->is_object()) {
      ++journal_corrupt_;
      continue;
    }
    const std::string_view op = doc->string_or("op", "");
    if (op == "submit") {
      const obs::JsonValue* job = doc->find("job");
      std::string error;
      std::optional<JobSpec> spec;
      if (job != nullptr) spec = parse_job(*job, error);
      if (!spec) {
        ++journal_corrupt_;
        continue;
      }
      submit_locked(std::move(*spec), /*journal=*/false);
      ++applied;
    } else if (op == "done" || op == "fail") {
      const std::optional<std::uint64_t> id = job_id(*doc);
      auto it = id ? jobs_.find(*id) : jobs_.end();
      if (it == jobs_.end()) {
        ++journal_corrupt_;
        continue;
      }
      if (op == "done") {
        it->second.state = JobState::kDone;
        ++jobs_completed_;
      } else {
        it->second.state = JobState::kFailed;
        it->second.error = std::string(doc->string_or("error", "failed"));
        ++jobs_failed_;
      }
      ++applied;
    } else {
      ++journal_corrupt_;
    }
  }
  return applied;
}

}  // namespace tinysdr::serve
