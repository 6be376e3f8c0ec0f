// Metrics edge cases and merge algebra: log-scale histograms fed zero and
// negative samples, merges over disjoint and colliding instrument sets,
// CSV export of empty registries, and the associativity property that
// makes sharded telemetry thread-count invariant.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "testkit/gen.hpp"
#include "testkit/property.hpp"

namespace tinysdr::obs {
namespace {

using testkit::check;
namespace gen = testkit::gen;

// --------------------------------------------------- histogram edge cases

TEST(MetricsEdge, LogHistogramRoutesZeroAndNegativeToUnderflow) {
  Registry r;
  Histogram& h = r.histogram("h", HistogramSpec::log_scale(0.01, 1e4, 12));
  h.observe(0.0);
  h.observe(-123.5);
  h.observe(1.0);  // one in-range sample
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), -123.5);
  // Quantiles stay total: ranks in the underflow bucket clamp to min.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), -123.5);
  EXPECT_GE(h.quantile(1.0), 1.0);
}

TEST(MetricsEdge, DegenerateRangeHistogramNeverCrashes) {
  Registry r;
  Histogram& h = r.histogram("h", HistogramSpec::linear(1.0, 1.0, 1));
  h.observe(0.5);
  h.observe(1.0);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.underflow() + h.overflow() + h.bucket_count(0), 3u);
}

TEST(MetricsEdge, NanGoesToOverflowAndLeavesMinMax) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> orders{{nan, 0.2, 0.7},
                                                {0.2, 0.7, nan}};
  const HistogramSpec spec = HistogramSpec::linear(0.0, 1.0, 4);
  for (const auto& values : orders) {
    Histogram h(spec);
    for (double v : values) h.observe(v);
    std::uint64_t binned = h.underflow() + h.overflow();
    for (std::uint64_t c : h.counts()) binned += c;
    EXPECT_EQ(binned, h.count());
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.min(), 0.2);
    EXPECT_EQ(h.max(), 0.7);
  }
  // A NaN-only shard merges in either order without moving min/max.
  for (bool nan_first : {true, false}) {
    Registry nan_shard, number_shard, merged;
    nan_shard.histogram("h", spec).observe(nan);
    number_shard.histogram("h", spec).observe(0.2);
    number_shard.histogram("h", spec).observe(0.7);
    merged.merge_from(nan_first ? nan_shard : number_shard);
    merged.merge_from(nan_first ? number_shard : nan_shard);
    const Histogram& h = merged.histogram("h", spec);
    EXPECT_EQ(h.min(), 0.2);
    EXPECT_EQ(h.max(), 0.7);
  }
}

// ------------------------------------------------------------ merge edges

TEST(MetricsEdge, MergeDisjointKeysIsAUnion) {
  Registry a, b;
  a.counter("only.a").add(2.0);
  a.gauge("gauge.a").set(1.5);
  b.counter("only.b").add(3.0);
  b.histogram("hist.b").observe(0.25);

  Registry merged;
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_DOUBLE_EQ(merged.counters().at("only.a").value(), 2.0);
  EXPECT_DOUBLE_EQ(merged.counters().at("only.b").value(), 3.0);
  EXPECT_DOUBLE_EQ(merged.gauges().at("gauge.a").value(), 1.5);
  EXPECT_EQ(merged.histograms().at("hist.b").count(), 1u);
}

TEST(MetricsEdge, MergeCollidingKeysMatchesSerialExecution) {
  Registry serial;
  serial.counter("c").add(1.0);
  serial.counter("c").add(0.1);
  serial.histogram("h").observe(0.5);
  serial.histogram("h").observe(0.7);

  Registry s1, s2;
  s1.counter("c").add(1.0);
  s1.histogram("h").observe(0.5);
  s2.counter("c").add(0.1);
  s2.histogram("h").observe(0.7);

  Registry merged;
  merged.merge_from(s1);
  merged.merge_from(s2);
  EXPECT_EQ(merged.snapshot(), serial.snapshot());
}

TEST(MetricsEdge, EmptyRegistryExportsAreTotal) {
  Registry empty;
  auto snapshot = empty.snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
  EXPECT_EQ(empty.json(),
            "{\"schema\":\"tinysdr-metrics-v1\",\"counters\":{},"
            "\"gauges\":{},\"histograms\":{}}");

  // Merging an empty shard is a no-op.
  Registry target;
  target.counter("c").add(1.0);
  Registry shard;
  target.merge_from(shard);
  target.merge_from(empty);
  EXPECT_DOUBLE_EQ(target.counters().at("c").value(), 1.0);
}

// --------------------------------------------------- associativity property

struct Op {
  std::uint32_t kind = 0;   // 0 counter, 1 gauge, 2 histogram
  std::uint32_t name = 0;
  double value = 0.0;
};

void apply(Registry& r, const Op& op) {
  const std::string name = "m" + std::to_string(op.name % 3);
  switch (op.kind % 3) {
    case 0: r.counter("c." + name).add(op.value); break;
    case 1: r.gauge("g." + name).set(op.value); break;
    default:
      r.histogram("h." + name, HistogramSpec::log_scale(0.1, 100.0, 6))
          .observe(op.value);
      break;
  }
}

TEST(MetricsProperty, ShardedMergeIsAssociativeAndBitExact) {
  auto op = gen::tuple_of(gen::uint_below(3), gen::uint_below(3),
                          gen::element_of<double>(
                              {0.0, -2.0, 0.3, 1e9, 1e-11, 7.25}))
                .map([](const std::tuple<std::uint32_t, std::uint32_t,
                                         double>& t) {
                  return Op{std::get<0>(t), std::get<1>(t), std::get<2>(t)};
                });
  auto g = gen::pair_of(gen::vector_of(op), gen::uint_below(1u << 16));
  auto result = check(
      g, [](const std::pair<std::vector<Op>, std::uint32_t>& c) {
        const auto& [ops, split_seed] = c;

        Registry serial;
        for (const auto& o : ops) apply(serial, o);

        // Contiguous partition into 3 shards.
        const std::size_t a = ops.size() * (split_seed % 100) / 100;
        const std::size_t b =
            a + (ops.size() - a) * ((split_seed / 100) % 100) / 100;
        std::vector<std::unique_ptr<Registry>> shards;
        const std::size_t bounds[4] = {0, a, b, ops.size()};
        for (int s = 0; s < 3; ++s) {
          auto shard = std::make_unique<Registry>();
          for (std::size_t i = bounds[s]; i < bounds[s + 1]; ++i)
            apply(*shard, ops[i]);
          shards.push_back(std::move(shard));
        }

        Registry flat;
        for (const auto& s : shards) flat.merge_from(*s);
        if (flat.snapshot() != serial.snapshot()) return false;
        if (flat.json() != serial.json()) return false;

        // (s0 + s1) + s2 through an intermediate shard.
        Registry left;
        left.merge_from(*shards[0]);
        left.merge_from(*shards[1]);
        Registry grouped;
        grouped.merge_from(left);
        grouped.merge_from(*shards[2]);
        if (grouped.snapshot() != serial.snapshot()) return false;

        // s2 + s1 + s0: sums, counts, buckets and min/max do not depend
        // on merge order. Gauges are last-write-wins, so reversing the
        // shards may change them; they are left out of this comparison.
        Registry reversed;
        for (auto it = shards.rbegin(); it != shards.rend(); ++it)
          reversed.merge_from(**it);
        const MetricsSnapshot want = serial.snapshot();
        const MetricsSnapshot got = reversed.snapshot();
        return got.counters == want.counters &&
               got.histograms == want.histograms;
      });
  EXPECT_TRUE(result.ok) << result.message();
}

}  // namespace
}  // namespace tinysdr::obs
