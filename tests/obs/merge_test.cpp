// Shard-merge edge cases: Tracer::absorb event ordering and
// Registry::merge_from over histogram shards with exact sums — the two
// operations the parallel campaign's byte-identity guarantee stands on.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tinysdr::obs {
namespace {

// ------------------------------------------------------- Tracer::absorb

TEST(TracerAbsorb, PreservesShardOrderOldestFirst) {
  Tracer shard = Tracer::unbounded();
  for (int i = 0; i < 5; ++i) {
    shard.set_time(Seconds{static_cast<double>(i)});
    shard.instant("t", "e" + std::to_string(i));
  }
  Tracer campaign;
  campaign.absorb(shard);
  auto events = campaign.events();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(events[static_cast<std::size_t>(i)].name,
              "e" + std::to_string(i));
}

TEST(TracerAbsorb, ShardsLandInAbsorptionOrderWithShiftedBases) {
  auto shard = [](const char* name, double t) {
    Tracer s = Tracer::unbounded();
    s.set_time(Seconds{t});
    s.instant("t", name);
    return s;
  };
  // Absorb in the campaign's node-index order; each shard's events land
  // after the previous shard's timeline regardless of recording times.
  Tracer a = shard("a", 3.0);
  Tracer b = shard("b", 1.0);
  Tracer campaign;
  campaign.absorb(a);
  campaign.shift_base(Seconds{5.0});
  campaign.absorb(b);
  auto events = campaign.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_DOUBLE_EQ(events[0].ts_us, 3e6);
  EXPECT_EQ(events[1].name, "b");
  EXPECT_DOUBLE_EQ(events[1].ts_us, 6e6);  // 5 s base + 1 s relative
}

TEST(TracerAbsorb, EmptyShardIsANoop) {
  Tracer campaign;
  campaign.instant("t", "before");
  Tracer empty = Tracer::unbounded();
  std::string before = campaign.chrome_json();
  campaign.absorb(empty);
  EXPECT_EQ(campaign.chrome_json(), before);
}

TEST(TracerAbsorb, MergesTrackNamesAndDropCounts) {
  Tracer overflowing{1};
  overflowing.name_track(7, "node-7");
  overflowing.instant("t", "kept?");
  overflowing.instant("t", "kept");
  EXPECT_EQ(overflowing.dropped(), 1u);

  Tracer campaign;
  campaign.absorb(overflowing);
  EXPECT_EQ(campaign.dropped(), 1u);
  // Track metadata travels with the shard: the merged export names the
  // shard's track.
  EXPECT_NE(campaign.chrome_json().find("node-7"), std::string::npos);
}

TEST(TracerAbsorb, SameCapacityShardsMatchSerialRing) {
  // Shards bounded at the target's capacity drop only events the target
  // would drop anyway, so every contiguous split of an event sequence
  // exports exactly what one serial ring of that capacity does.
  constexpr int kEvents = 12;
  auto record = [](Tracer& t, int i) {
    t.set_time(Seconds{static_cast<double>(i)});
    t.instant("t", "e" + std::to_string(i));
  };
  for (std::size_t capacity : {1u, 3u, 5u, 16u}) {
    Tracer serial{capacity};
    for (int i = 0; i < kEvents; ++i) record(serial, i);
    for (int a = 0; a <= kEvents; ++a) {
      for (int b = a; b <= kEvents; ++b) {
        const int bounds[4] = {0, a, b, kEvents};
        Tracer campaign{capacity};
        for (int s = 0; s < 3; ++s) {
          Tracer shard{capacity};
          for (int i = bounds[s]; i < bounds[s + 1]; ++i) record(shard, i);
          campaign.absorb(shard);
        }
        ASSERT_EQ(campaign.chrome_json(), serial.chrome_json())
            << "capacity " << capacity << ", split " << a << "/" << b;
      }
    }
  }
}

// -------------------------------------------------- Registry::merge_from

TEST(RegistryMerge, EmptyShardIsANoop) {
  Registry campaign;
  campaign.counter("c").add(2.0);
  campaign.histogram("h", HistogramSpec::linear(0.0, 10.0, 5)).observe(3.0);
  std::string before = campaign.json();

  Registry shard;
  campaign.merge_from(shard);
  EXPECT_EQ(campaign.json(), before);
}

TEST(RegistryMerge, HistogramShardsMergeBitExact) {
  // Sums are exact and rounded once, so a sharded run must produce the
  // exact accumulator state of the serial run — not just the same
  // bucket counts — in either merge order.
  const HistogramSpec spec = HistogramSpec::log_scale(1e-3, 1e3, 12);
  const double xs[] = {0.1, 0.7, 1e-4, 5.0, 999.0, 2e3, 0.25};

  Registry serial;
  for (double x : xs) serial.histogram("h", spec).observe(x);

  Registry merged;
  Registry shard_a, shard_b;
  for (int i = 0; i < 4; ++i) shard_a.histogram("h", spec).observe(xs[i]);
  for (int i = 4; i < 7; ++i) shard_b.histogram("h", spec).observe(xs[i]);
  merged.merge_from(shard_a);
  merged.merge_from(shard_b);

  EXPECT_EQ(merged.snapshot(), serial.snapshot());
  EXPECT_EQ(merged.json(), serial.json());

  Registry reversed;
  reversed.merge_from(shard_b);
  reversed.merge_from(shard_a);
  EXPECT_EQ(reversed.json(), serial.json());
}

TEST(RegistryMerge, CancellationSumsExactlyUnderEveryPartition) {
  // Naive left-to-right summation of {1e16, 1, -1e16} gives 0 (the 1 is
  // absorbed by 1e16); the exact sum is 1 whichever way the values are
  // split across shards and whichever order the shards merge in.
  const double xs[] = {1e16, 1.0, -1e16};
  EXPECT_EQ((xs[0] + xs[1]) + xs[2], 0.0);
  const HistogramSpec spec = HistogramSpec::linear(0.0, 10.0, 5);

  Registry serial;
  for (double x : xs) {
    serial.counter("c").add(x);
    serial.histogram("h", spec).observe(x);
  }
  EXPECT_EQ(serial.counters().at("c").value(), 1.0);
  EXPECT_EQ(serial.histograms().at("h").sum(), 1.0);

  // Every assignment of the three values to shards 0..2, merged in both
  // index orders.
  for (int assign = 0; assign < 27; ++assign) {
    Registry shards[3];
    int code = assign;
    for (double x : xs) {
      Registry& shard = shards[code % 3];
      code /= 3;
      shard.counter("c").add(x);
      shard.histogram("h", spec).observe(x);
    }
    Registry forward, backward;
    for (int k = 0; k < 3; ++k) {
      forward.merge_from(shards[k]);
      backward.merge_from(shards[2 - k]);
    }
    for (const Registry* merged : {&forward, &backward}) {
      EXPECT_EQ(merged->counters().at("c").value(), 1.0)
          << "partition " << assign;
      EXPECT_EQ(merged->histograms().at("h").sum(), 1.0)
          << "partition " << assign;
    }
  }
}

TEST(RegistryMerge, DuplicateMetricNamesAccumulateAcrossShards) {
  Registry campaign;
  Registry shard_a, shard_b;
  // Both shards touch the *same* counter and histogram names — the
  // normal case, since every node runs the same instrumented code.
  shard_a.counter("ota.transfers").add(3.0);
  shard_b.counter("ota.transfers").add(4.0);
  const HistogramSpec spec = HistogramSpec::linear(0.0, 10.0, 10);
  shard_a.histogram("h", spec).observe(1.0);
  shard_b.histogram("h", spec).observe(9.0);

  campaign.merge_from(shard_a);
  campaign.merge_from(shard_b);
  EXPECT_DOUBLE_EQ(campaign.counters().at("ota.transfers").value(), 7.0);
  EXPECT_EQ(campaign.histograms().at("h").count(), 2u);
  EXPECT_DOUBLE_EQ(campaign.histograms().at("h").min(), 1.0);
  EXPECT_DOUBLE_EQ(campaign.histograms().at("h").max(), 9.0);
}

TEST(RegistryMerge, MergeThenSnapshotIsDeterministic) {
  auto build = [] {
    Registry campaign;
    for (int shard_idx = 0; shard_idx < 3; ++shard_idx) {
      Registry shard;
      shard.counter("n").add(static_cast<double>(shard_idx) + 0.5);
      shard.histogram("h", HistogramSpec::log_scale(0.1, 100.0, 8))
          .observe(static_cast<double>(shard_idx) * 1.1 + 0.2);
      campaign.merge_from(shard);
    }
    return campaign.json();
  };
  std::string a = build();
  std::string b = build();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tinysdr::obs
