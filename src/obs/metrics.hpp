// Metrics registry: named counters, gauges and fixed-bucket histograms
// (PER, retransmissions-per-chunk, backoff delay, SNR, demod SER,
// per-activity energy, wall-clock profile samples) with a deterministic
// snapshot API and JSON export.
//
// Same null-sink contract as the tracer: `metrics()` is nullptr until a
// MetricsSession installs a Registry, so uninstrumented runs pay one
// branch per site and produce bit-identical results. The sink pointer is
// thread_local: parallel drivers give each unit of work a shard Registry
// (obs::ItemShards, shards.hpp) and merge_from() the shards. Every summed
// field is order-independent: counts, buckets, min and max are, and
// counter values and histogram sums are ExactSums, whose value is the
// correctly rounded exact total. So a merge is associative and
// commutative, its state does not grow with the number of operations,
// and a sharded run equals a serial one bit for bit at any thread count.
// Gauges are last-write-wins; shards merge them in index order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace tinysdr::obs {

/// Exact running sum of doubles: Shewchuk's non-overlapping partials, the
/// method behind Python's math.fsum. value() is the exact total rounded
/// once to nearest-even, so it does not depend on the order of add()s or
/// merges. Non-finite inputs are summed on their own and dominate the
/// result. The partials never overlap, so their number is bounded by the
/// exponent range (in practice one to three), not by the number of adds.
/// A running total beyond the double range saturates to +-inf.
class ExactSum {
 public:
  void add(double x);
  void add(const ExactSum& other);
  [[nodiscard]] double value() const;

 private:
  std::vector<double> partials_;  ///< non-overlapping, increasing magnitude
  double nonfinite_ = 0.0;        ///< sum of the inf/nan inputs
};

class Counter {
 public:
  void add(double n = 1.0) { value_.add(n); }
  [[nodiscard]] double value() const { return value_.value(); }

 private:
  friend class Registry;
  ExactSum value_;
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

  /// A NaN is counted and summed, lands in the overflow bucket and leaves
  /// min/max to the other values.
  void observe(double value);

  [[nodiscard]] const HistogramSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_.value(); }
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
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  ExactSum sum_;
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
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name, HistogramSpec spec = {});

  /// Fold a shard registry into this one by aggregate: exact sums add,
  /// counts and buckets add, min/max combine, touched gauges overwrite.
  /// Bit-identical to having run the shard's operations here directly.
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
