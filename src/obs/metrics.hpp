// Metrics registry: named counters, gauges and fixed-bucket histograms
// (PER, retransmissions-per-chunk, backoff delay, SNR, demod SER,
// per-activity energy, wall-clock profile samples) with a deterministic
// snapshot API and JSON export.
//
// Same null-sink contract as the tracer: `metrics()` is nullptr until a
// MetricsSession installs a Registry, so uninstrumented runs pay one
// branch per site and produce bit-identical results. The sink pointer is
// thread_local: parallel campaigns install a journaled shard Registry per
// unit of work and merge_from() the shards in deterministic index order.
// The journal replays every raw add/observe in its original order, so the
// merged floating-point state is bit-identical to a serial run's — no
// reliance on (non-existent) float associativity.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace tinysdr::obs {

class Counter {
 public:
  void add(double n = 1.0) {
    value_ += n;
    if (journaled_) journal_.push_back(n);
  }
  [[nodiscard]] double value() const { return value_; }

 private:
  friend class Registry;
  double value_ = 0.0;
  bool journaled_ = false;        ///< shard mode (Registry::enable_journal)
  std::vector<double> journal_;   ///< every add, in order, for exact replay
};

class Gauge {
 public:
  void set(double v) {
    value_ = v;
    touched_ = true;
  }
  [[nodiscard]] double value() const { return value_; }

 private:
  friend class Registry;
  double value_ = 0.0;
  bool touched_ = false;  ///< distinguishes "set to 0" from "never set"
};

/// Fixed-bucket layout: `buckets` intervals spanning [lo, hi), either
/// equal-width (linear) or equal-ratio (geometric; requires lo > 0).
/// Samples outside the range land in dedicated under/overflow buckets.
struct HistogramSpec {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t buckets = 20;
  bool geometric = false;

  [[nodiscard]] static HistogramSpec linear(double lo, double hi,
                                            std::size_t buckets) {
    return HistogramSpec{lo, hi, buckets, false};
  }
  [[nodiscard]] static HistogramSpec log_scale(double lo, double hi,
                                               std::size_t buckets) {
    return HistogramSpec{lo, hi, buckets, true};
  }

  [[nodiscard]] bool operator==(const HistogramSpec&) const = default;
};

class Histogram {
 public:
  explicit Histogram(HistogramSpec spec = {});

  void observe(double value);

  [[nodiscard]] const HistogramSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i];
  }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  /// Bucket edges: bucket i covers [lower(i), upper(i)).
  [[nodiscard]] double bucket_lower(std::size_t i) const;
  [[nodiscard]] double bucket_upper(std::size_t i) const;

  /// q-quantile estimate (q in [0,1]) by linear interpolation inside the
  /// containing bucket; ranks in the under/overflow buckets clamp to the
  /// observed min/max.
  [[nodiscard]] double quantile(double q) const;

 private:
  friend class Registry;
  HistogramSpec spec_;
  bool journaled_ = false;
  std::vector<double> journal_;  ///< every observed value, in order
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Deterministic, comparable point-in-time copy of a Registry. Snapshots
/// round-trip exactly through their JSON form (shortest-round-trip number
/// formatting on both sides).
struct MetricsSnapshot {
  struct HistogramData {
    HistogramSpec spec;
    std::vector<std::uint64_t> counts;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    [[nodiscard]] bool operator==(const HistogramData&) const = default;
  };

  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  [[nodiscard]] bool operator==(const MetricsSnapshot&) const = default;

  [[nodiscard]] std::string json() const;
  void write_json(std::ostream& out) const;
};

class Registry {
 public:
  /// Find-or-create by name. For histograms, the spec applies only on
  /// first creation; later lookups return the existing instrument.
  Counter& counter(const std::string& name) {
    Counter& c = counters_[name];
    if (journal_) c.journaled_ = true;
    return c;
  }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name, HistogramSpec spec = {});

  /// Shard mode: every instrument additionally records its raw operations
  /// so merge_from() can replay them in order with exact float semantics.
  void enable_journal() { journal_ = true; }
  [[nodiscard]] bool journal_enabled() const { return journal_; }

  /// Fold a shard registry into this one. Journaled shard instruments are
  /// replayed operation by operation (bit-exact vs. having run the same
  /// ops here directly); non-journaled ones are merged by aggregate.
  void merge_from(const Registry& shard);

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::string json() const { return snapshot().json(); }
  void write_json(std::ostream& out) const { snapshot().write_json(out); }

 private:
  bool journal_ = false;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// The calling thread's installed registry, or nullptr (the null sink).
[[nodiscard]] Registry* metrics();

/// RAII installation of a Registry as the calling thread's metrics sink.
class MetricsSession {
 public:
  explicit MetricsSession(Registry& r);
  ~MetricsSession();
  MetricsSession(const MetricsSession&) = delete;
  MetricsSession& operator=(const MetricsSession&) = delete;

 private:
  Registry* previous_;
};

}  // namespace tinysdr::obs
