// serve_mix: one closed-loop client of serve::Engine. Each batch submits a
// tinysdr-job-v1 document through Engine::submit_json, runs it with
// run_next and reads result_json. A job sweeps all five PHYs twice: once
// over the window the previous job computed (cache reads) and once over a
// fresh window (computed, inserted and journaled), so about half of its
// points hit the cache. The LRU budget holds a few jobs' points, so old
// entries are evicted as the run goes on. Journals live in a temp dir
// under --out.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "phy/registry.hpp"
#include "serve/engine.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace tp = tinysdr::phy;
namespace fs = std::filesystem;

constexpr std::size_t kWindow = 8;   ///< points per sweep
constexpr std::size_t kTrials = 20;  ///< trials per point
constexpr std::size_t kPayloadBytes = 8;
/// Cache budget: about four jobs' fresh points (~200 bytes per entry).
constexpr std::size_t kCacheBytes = 4 * 5 * kWindow * 200;
/// Jobs after the warm-up job whose results enter the digest; every run
/// completes at least this many.
constexpr std::size_t kDigestJobs = 3;

/// Top of each PHY's RSSI window: the sensitivity knee region.
double window_top(tp::Protocol p) {
  switch (p) {
    case tp::Protocol::kLora: return -118.0;
    case tp::Protocol::kBle: return -90.0;
    case tp::Protocol::kZigbee: return -94.0;
    case tp::Protocol::kSigfox: return -136.0;
    case tp::Protocol::kNbiot: return -128.0;
  }
  return -100.0;
}

class ServeMix final : public Workload {
 public:
  ServeMix(const Options& opt, bool decorated)
      : opt_(opt),
        registry_(decorated ? std::make_unique<tp::Registry>(timed_registry())
                            : nullptr),
        other_registry_(decorated ? nullptr
                                  : std::make_unique<tp::Registry>(
                                        timed_registry())),
        dir_(fs::path(opt.out_dir) /
             ("serve-" + std::to_string(opt.seed) + "-" +
              std::to_string(static_cast<unsigned long>(::getpid())))),
        submit_span_(SpanLog::intern("serve.submit_json")),
        run_span_(SpanLog::intern("serve.run_next")),
        result_span_(SpanLog::intern("serve.result_json")) {
    tinysdr::Rng gen{opt.seed, 0x5e4};
    seed_root_ = (static_cast<std::uint64_t>(gen.next_u32()) << 21) ^
                 gen.next_u32();
  }

  ~ServeMix() override {
    engine_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ServeMix(const ServeMix&) = delete;
  ServeMix& operator=(const ServeMix&) = delete;

  const char* item_name() const override { return "jobs"; }

  void setup(Tally& tally) override {
    engine_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
    tinysdr::serve::EngineConfig config;
    config.cache_bytes = kCacheBytes;
    config.cache_journal = (dir_ / "cache.ndjson").string();
    config.job_journal = (dir_ / "jobs.ndjson").string();
    config.policy = tinysdr::exec::ExecPolicy::with_threads(opt_.threads);
    engine_ = std::make_unique<tinysdr::serve::Engine>(registry(), config);

    next_job_ = 0;
    const std::string first = run_job(*engine_, job_json(next_job_++), tally);
    tally.check(warmup_.empty() || first == warmup_,
                "serve_mix: warm-up job repeats byte-identically");
    warmup_ = first;
    digest_ = Digest{};
    digest_.bytes(first);
  }

  std::size_t run_batch(Tally& tally) override {
    const std::size_t k = next_job_++;
    const auto before = engine_->stats();
    const std::string result = run_job(*engine_, job_json(k), tally);
    if (k <= kDigestJobs) digest_.bytes(result);
    if (k == 1) first_result_ = result;
    last_job_ = k;
    last_result_ = result;
    const auto after = engine_->stats();
    for (const auto& [name, value] : after)
      batch_delta_[name] = value - before.at(name);
    return 1;
  }

  void check(Tally& tally) override {
    // Resubmitted jobs give the same bytes: job 1 (its points long
    // evicted, so recomputed) and the last job (its points still cached).
    tally.check(run_job(*engine_, job_json(1), tally) == first_result_,
                "serve_mix: resubmitted early job is byte-identical");
    tally.check(run_job(*engine_, job_json(last_job_), tally) == last_result_,
                "serve_mix: resubmitted last job is byte-identical");
    // The opposite decoration, on a cold engine, gives the same bytes.
    tinysdr::serve::EngineConfig config;
    config.policy = tinysdr::exec::ExecPolicy::with_threads(opt_.threads);
    tinysdr::serve::Engine other{other_registry(), config};
    tally.check(run_job(other, job_json(0), tally) == warmup_,
                "serve_mix: decorated job equals undecorated job");
  }

  std::string digest() const override { return digest_.hex(); }

  void traced_batch_values(LayerValues& sum) override {
    ++traced_batches_;
    sum["serve.cache.hits"] += batch_delta_["serve.cache.hits"];
    sum["serve.cache.misses"] += batch_delta_["serve.cache.misses"];
    sum["serve.points.computed"] += batch_delta_["serve.points.computed"];
    sum["serve.cache.evictions"] += batch_delta_["serve.cache.evictions"];
  }

  void traced_extras(LayerValues& values) override {
    const double hits = values["serve.cache.hits"];
    const double misses = values["serve.cache.misses"];
    values["serve.cache.hit_ratio"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    const double b = traced_batches_ == 0 ? 1.0 : traced_batches_;
    for (const char* name : {"serve.cache.hits", "serve.cache.misses",
                             "serve.points.computed", "serve.cache.evictions"})
      values[name] /= b;
  }

 private:
  const tp::Registry& registry() const {
    return registry_ ? *registry_ : tp::Registry::builtin();
  }
  const tp::Registry& other_registry() const {
    return other_registry_ ? *other_registry_ : tp::Registry::builtin();
  }

  /// Base seed of job k's fresh sweep for one PHY; job k+1 repeats it.
  std::uint64_t sweep_seed(std::size_t k, std::size_t phy) const {
    return (seed_root_ + 7919 * k + phy) & ((std::uint64_t{1} << 52) - 1);
  }

  std::string sweep_json(tp::Protocol phy, std::uint64_t seed) const {
    using tinysdr::obs::json_number;
    std::ostringstream out;
    out << "{\"phy\":\"" << tp::protocol_name(phy) << "\",\"rssi\":[";
    for (std::size_t i = 0; i < kWindow; ++i) {
      if (i > 0) out << ",";
      out << json_number(window_top(phy) - 2.0 * static_cast<double>(i));
    }
    out << "],\"trials\":" << kTrials << ",\"payload_bytes\":" << kPayloadBytes
        << ",\"base_seed\":" << seed << "}";
    return out.str();
  }

  /// Job k: per PHY, the previous job's fresh sweep (cache reads), then a
  /// fresh sweep of its own (computed and inserted).
  std::string job_json(std::size_t k) const {
    std::ostringstream out;
    out << "{\"schema\":\"tinysdr-job-v1\",\"name\":\"mix-" << k
        << "\",\"sweeps\":[";
    bool first = true;
    const auto& entries = tp::Registry::builtin().entries();
    for (std::size_t p = 0; p < entries.size(); ++p) {
      for (std::size_t job : {k + 0, k + 1}) {
        if (!first) out << ",";
        first = false;
        out << sweep_json(entries[p].id, sweep_seed(job, p));
      }
    }
    out << "]}";
    return out.str();
  }

  std::string run_job(tinysdr::serve::Engine& engine, const std::string& json,
                      Tally& tally) const {
    std::string error;
    std::optional<std::uint64_t> id;
    {
      ScopedSpan span{submit_span_};
      id = engine.submit_json(json, error);
    }
    if (!id) {
      tally.check(false, "serve_mix: job rejected: " + error);
      return {};
    }
    std::optional<std::uint64_t> ran;
    {
      ScopedSpan span{run_span_};
      ran = engine.run_next();
    }
    std::optional<std::string> result;
    {
      ScopedSpan span{result_span_};
      result = engine.result_json(*id);
    }
    const auto status = engine.status(*id);
    tally.check(ran == id && result.has_value() && status &&
                    status->state == tinysdr::serve::JobState::kDone,
                "serve_mix: job done with a result");
    return result.value_or(std::string{});
  }

  Options opt_;
  std::unique_ptr<tp::Registry> registry_;        ///< timed, when decorated
  std::unique_ptr<tp::Registry> other_registry_;  ///< timed, when not
  fs::path dir_;
  std::uint32_t submit_span_, run_span_, result_span_;
  std::uint64_t seed_root_ = 0;

  std::unique_ptr<tinysdr::serve::Engine> engine_;
  std::size_t next_job_ = 0;
  std::string warmup_;
  std::string first_result_;
  std::size_t last_job_ = 0;
  std::string last_result_;
  Digest digest_;
  std::map<std::string, double> batch_delta_;
  std::size_t traced_batches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(const Options& opt, bool decorated) {
  return std::make_unique<ServeMix>(opt, decorated);
}

}  // namespace perfbench
