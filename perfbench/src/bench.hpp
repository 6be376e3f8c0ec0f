// The benchmark's shared vocabulary: options, the output-check
// tally, the outputs digest, metrics, and the Workload interface that each
// of the four workloads implements.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ota/update.hpp"
#include "phy/link_sim.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads for the program's parallel regions (<= nproc).
  std::size_t threads = 4;
  /// Where traced runs write their layer table and Perfetto trace, and
  /// where serve_mix keeps its journals.
  std::string out_dir = ".";
};

/// Operations attempted and failed: failed batches, incomplete runs and
/// every output-check mismatch.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count one operation; report and count it as failed unless `ok`.
  void check(bool ok, std::string_view what);
  /// failed / attempted (0 when nothing was attempted).
  [[nodiscard]] double error_ratio() const;
};

/// FNV-1a 64 over a canonical byte encoding of program outputs. Doubles
/// enter by bit pattern, so any change to a simulated statistic shows.
class Digest {
 public:
  void bytes(std::string_view data);
  void point(const tinysdr::phy::PointResult& p);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Canonical byte encoding of an UpdateReport (every field, doubles by
/// bit pattern) — the equality the fleet output checks compare.
[[nodiscard]] std::string encode_report(const tinysdr::ota::UpdateReport& r);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Workload-specific per-layer values, filled during traced batches and
/// by Workload::traced_extras(). Missing names report 0.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// What one counted work item is ("trials", "frames", "jobs", "nodes").
  [[nodiscard]] virtual const char* item_name() const = 0;

  /// Build the program objects from the generated inputs and run one
  /// warm-up batch whose outputs become the reference. Called several
  /// times; each call replaces the objects of the previous one.
  virtual void setup(Tally& tally) = 0;

  /// One closed-loop batch; returns the work items it completed. Its
  /// outputs are checked against the reference.
  virtual std::size_t run_batch(Tally& tally) = 0;

  /// Workload-specific output checks, run once after measuring.
  virtual void check(Tally& tally) = 0;

  /// Digest of the reference outputs: a pure function of the seed.
  [[nodiscard]] virtual std::string digest() const = 0;

  /// Called after each traced batch with the values its layers moved
  /// (cache stats, flow counters, simulated counts), per batch.
  virtual void traced_batch_values(LayerValues& /*sum*/) {}

  /// Traced-run-only measurements outside the batch loop (direct calls,
  /// memory growth), recorded as spans and values.
  virtual void traced_extras(LayerValues& /*values*/) {}
};

/// Construct a workload; `decorated` selects the timed PHY adapters.
[[nodiscard]] std::unique_ptr<Workload> make_lora_sweep(const Options& opt,
                                                        bool decorated);
[[nodiscard]] std::unique_ptr<Workload> make_stream_concurrent(
    const Options& opt, bool decorated);
[[nodiscard]] std::unique_ptr<Workload> make_serve_mix(const Options& opt,
                                                       bool decorated);
[[nodiscard]] std::unique_ptr<Workload> make_ota_fleet(const Options& opt,
                                                       bool decorated);

/// Current and peak resident set size of this process, in MiB.
[[nodiscard]] double rss_mb();
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace perfbench
