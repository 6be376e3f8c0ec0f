#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace tinysdr::obs {

namespace {
thread_local Registry* g_metrics = nullptr;
}  // namespace

Registry* metrics() { return g_metrics; }

MetricsSession::MetricsSession(Registry& r) : previous_(g_metrics) {
  g_metrics = &r;
}

MetricsSession::~MetricsSession() { g_metrics = previous_; }

// ----------------------------------------------------------------- ExactSum

void ExactSum::add(double x) {
  if (!std::isfinite(x)) {
    nonfinite_ += x;
    return;
  }
  // Grow the expansion by x: each partial is swapped in magnitude order
  // and split into its rounded sum and exact error (Fast2Sum); zero
  // errors are dropped, so the partials stay non-overlapping.
  std::size_t kept = 0;
  for (double y : partials_) {
    if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
    const double hi = x + y;
    const double lo = y - (hi - x);
    if (lo != 0.0) partials_[kept++] = lo;
    x = hi;
  }
  partials_.resize(kept);
  if (!std::isfinite(x)) {
    // Intermediate overflow: the exact total is out of range.
    nonfinite_ += x;
    partials_.clear();
  } else if (x != 0.0) {
    partials_.push_back(x);
  }
}

void ExactSum::add(const ExactSum& other) {
  for (double p : other.partials_) add(p);
  nonfinite_ += other.nonfinite_;
}

double ExactSum::value() const {
  if (nonfinite_ != 0.0) return nonfinite_;  // +-inf or nan
  // Sum from the largest partial down until the sum turns inexact, then
  // correct a round-half-even tie that the partials below break.
  std::size_t n = partials_.size();
  if (n == 0) return 0.0;
  double hi = partials_[--n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = partials_[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0.0) break;
  }
  if (n > 0 && ((lo < 0.0 && partials_[n - 1] < 0.0) ||
                (lo > 0.0 && partials_[n - 1] > 0.0))) {
    const double y = lo * 2.0;
    const double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(HistogramSpec spec) : spec_(spec) {
  if (spec_.buckets == 0) spec_.buckets = 1;
  if (!(spec_.hi > spec_.lo)) spec_.hi = spec_.lo + 1.0;
  if (spec_.geometric && spec_.lo <= 0.0) spec_.geometric = false;
  counts_.assign(spec_.buckets, 0);
}

namespace {

// Running min/max that no NaN moves: they are NaN only while every value
// so far was NaN, and std::min/max keep their first argument against a
// NaN second one.
void fold_extremes(double& min, double& max, bool empty, double new_min,
                   double new_max) {
  const bool restart = empty || std::isnan(min);
  min = restart ? new_min : std::min(min, new_min);
  max = restart ? new_max : std::max(max, new_max);
}

}  // namespace

void Histogram::observe(double value) {
  fold_extremes(min_, max_, count_ == 0, value, value);
  ++count_;
  sum_.add(value);

  if (value < spec_.lo) {
    ++underflow_;
    return;
  }
  if (!(value < spec_.hi)) {  // also NaN, which fails every comparison
    ++overflow_;
    return;
  }
  std::size_t idx;
  if (spec_.geometric) {
    double ratio = std::log(spec_.hi / spec_.lo);
    idx = static_cast<std::size_t>(std::log(value / spec_.lo) / ratio *
                                   static_cast<double>(spec_.buckets));
  } else {
    idx = static_cast<std::size_t>((value - spec_.lo) / (spec_.hi - spec_.lo) *
                                   static_cast<double>(spec_.buckets));
  }
  if (idx >= spec_.buckets) idx = spec_.buckets - 1;  // float edge safety
  ++counts_[idx];
}

double Histogram::bucket_lower(std::size_t i) const {
  double f = static_cast<double>(i) / static_cast<double>(spec_.buckets);
  if (spec_.geometric)
    return spec_.lo * std::pow(spec_.hi / spec_.lo, f);
  return spec_.lo + (spec_.hi - spec_.lo) * f;
}

double Histogram::bucket_upper(std::size_t i) const { return bucket_lower(i + 1); }

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(count_);
  double cum = static_cast<double>(underflow_);
  if (rank <= cum) return min_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    double next = cum + static_cast<double>(counts_[i]);
    if (rank <= next && counts_[i] > 0) {
      double frac = (rank - cum) / static_cast<double>(counts_[i]);
      return bucket_lower(i) + frac * (bucket_upper(i) - bucket_lower(i));
    }
    cum = next;
  }
  return max_;
}

// ----------------------------------------------------------------- Registry

Histogram& Registry::histogram(const std::string& name, HistogramSpec spec) {
  return histograms_.try_emplace(name, spec).first->second;
}

void Registry::merge_from(const Registry& shard) {
  for (const auto& [name, c] : shard.counters_)
    counter(name).value_.add(c.value_);
  for (const auto& [name, g] : shard.gauges_)
    if (g.touched_) gauge(name).set(g.value_);
  for (const auto& [name, h] : shard.histograms_) {
    Histogram& dst = histogram(name, h.spec_);
    if (h.count_ == 0) continue;
    fold_extremes(dst.min_, dst.max_, dst.count_ == 0, h.min_, h.max_);
    dst.count_ += h.count_;
    dst.sum_.add(h.sum_);
    dst.underflow_ += h.underflow_;
    dst.overflow_ += h.overflow_;
    for (std::size_t i = 0; i < dst.counts_.size() && i < h.counts_.size();
         ++i)
      dst.counts_[i] += h.counts_[i];
  }
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData d;
    d.spec = h.spec();
    d.counts = h.counts();
    d.underflow = h.underflow();
    d.overflow = h.overflow();
    d.count = h.count();
    d.sum = h.sum();
    d.min = h.min();
    d.max = h.max();
    snap.histograms[name] = std::move(d);
  }
  return snap;
}

// ---------------------------------------------------------- MetricsSnapshot

void MetricsSnapshot::write_json(std::ostream& out) const {
  out << "{\"schema\":\"tinysdr-metrics-v1\",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out << ",";
    first = false;
    out << json_quote(name) << ":" << json_number(v);
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out << ",";
    first = false;
    out << json_quote(name) << ":" << json_number(v);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out << ",";
    first = false;
    out << json_quote(name) << ":{\"lo\":" << json_number(h.spec.lo)
        << ",\"hi\":" << json_number(h.spec.hi)
        << ",\"buckets\":" << h.spec.buckets
        << ",\"geometric\":" << (h.spec.geometric ? "true" : "false")
        << ",\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out << ",";
      out << h.counts[i];
    }
    out << "],\"underflow\":" << h.underflow << ",\"overflow\":" << h.overflow
        << ",\"count\":" << h.count << ",\"sum\":" << json_number(h.sum)
        << ",\"min\":" << json_number(h.min)
        << ",\"max\":" << json_number(h.max) << "}";
  }
  out << "}}";
}

std::string MetricsSnapshot::json() const {
  std::ostringstream oss;
  write_json(oss);
  return oss.str();
}

}  // namespace tinysdr::obs
