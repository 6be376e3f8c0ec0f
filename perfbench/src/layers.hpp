// Per-layer analysis of traced batches: folds the benchmark's own spans,
// the worker pool's wall-clock chunk trace and the program's obs counters
// into the per-layer metrics, the layer table and a Perfetto trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"

namespace perfbench {

class LayerAccumulator {
 public:
  explicit LayerAccumulator(std::size_t threads) : threads_(threads) {}

  /// Fold one traced batch: its spans, plus the pool trace events recorded
  /// by an exec::PoolTraceSession that started at `pool_t0_ns`.
  void add_batch(const std::vector<Span>& spans,
                 const std::vector<tinysdr::obs::TraceEvent>& pool,
                 std::int64_t pool_t0_ns);

  /// Fold the spans of Workload::traced_extras() (direct calls, not
  /// normalised per batch).
  void add_extras(const std::vector<Span>& spans);

  /// Every per-layer metric, in report order. Totals are per traced batch.
  [[nodiscard]] std::vector<Metric> metrics(
      const tinysdr::obs::Registry& registry, const LayerValues& values,
      double trace_overhead, double error_ratio) const;

  /// Layer table: name, calls, busy, self and share per traced batch.
  void write_table(std::ostream& out) const;

  /// Chrome/Perfetto trace_event JSON of the first traced batches' spans
  /// (thread -> region -> call) and the extras.
  void write_chrome_json(std::ostream& out) const;

 private:
  struct NameStats {
    std::uint64_t calls = 0;
    double busy_s = 0.0;
    double self_s = 0.0;
    std::uint64_t samples = 0;
    bool region = false;
  };

  using NameMap = std::map<std::string, NameStats>;
  using DurationMap = std::map<std::string, std::vector<double>>;

  static void fold_spans(const std::vector<Span>& spans, NameMap& names,
                         DurationMap& durations_us);

  std::size_t threads_;
  std::size_t batches_ = 0;
  double batch_wall_s_ = 0.0;
  NameMap names_;              ///< traced batches
  DurationMap durations_us_;
  NameMap extras_;             ///< traced_extras() direct calls
  DurationMap extra_durations_us_;
  double link_self_s_ = 0.0;
  double link_window_s_ = 0.0;
  double flow_self_s_ = 0.0;
  double campaign_self_s_ = 0.0;
  std::vector<double> serve_self_ms_;
  double pool_busy_s_ = 0.0;
  double pool_capacity_s_ = 0.0;
  double pool_tail_idle_s_ = 0.0;
  std::vector<Span> kept_;
};

}  // namespace perfbench
