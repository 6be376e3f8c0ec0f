// obs::Registry merge harness: any op sequence, partitioned into any
// contiguous set of shards and merged back in order — flat or through
// intermediate shards — must be bit-identical to having run the ops
// serially, and merging the shards in reverse order must give the same
// counters and histograms (exact sums make those order-independent).
// This is the exact mechanism the parallel campaign and sweep engines
// rely on for threads-invariant telemetry.
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "harnesses.hpp"
#include "obs/metrics.hpp"
#include "testkit/bytes.hpp"
#include "testkit/harness.hpp"

namespace tinysdr::fuzz {
namespace {

void require(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error(what);
}

struct Op {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram } kind;
  std::uint32_t name;
  double value;
};

// Histogram spec keyed by name index — the spec only applies on first
// creation, so every registry must derive it the same way.
obs::HistogramSpec spec_for(std::uint32_t name) {
  switch (name % 3) {
    case 0:
      return obs::HistogramSpec::linear(-5.0, 5.0, 8);
    case 1:
      return obs::HistogramSpec::log_scale(0.01, 1e4, 12);
    default:
      // Degenerate range: everything lands in under/overflow.
      return obs::HistogramSpec::linear(1.0, 1.0, 1);
  }
}

void apply(obs::Registry& r, const Op& op) {
  const std::string name = "m" + std::to_string(op.name);
  switch (op.kind) {
    case Op::Kind::kCounter:
      r.counter("c." + name).add(op.value);
      break;
    case Op::Kind::kGauge:
      r.gauge("g." + name).set(op.value);
      break;
    case Op::Kind::kHistogram:
      r.histogram("h." + name, spec_for(op.name)).observe(op.value);
      break;
  }
}

void metrics_merge(std::span<const std::uint8_t> data) {
  testkit::ByteSource src{data};

  // The partition shape comes first, so it is drawn from the input's own
  // bytes even when decoding the ops below runs the input dry.
  const std::size_t nshards = 1 + src.uint_below(5);
  std::uint32_t cuts[4] = {};
  for (std::size_t s = 0; s + 1 < nshards; ++s) cuts[s] = src.u32();
  const std::uint32_t split_draw = src.u32();

  // Decode an op sequence with values deliberately hitting the edges:
  // zero and negative samples on log-scale histograms, huge magnitudes,
  // non-finite-adjacent tiny values.
  const std::size_t nops = src.uint_below(64);
  std::vector<Op> ops;
  ops.reserve(nops);
  for (std::size_t i = 0; i < nops; ++i) {
    Op op;
    switch (src.uint_below(3)) {
      case 0: op.kind = Op::Kind::kCounter; break;
      case 1: op.kind = Op::Kind::kGauge; break;
      default: op.kind = Op::Kind::kHistogram; break;
    }
    op.name = src.uint_below(4);
    switch (src.uint_below(6)) {
      case 0: op.value = 0.0; break;
      case 1: op.value = -1.5; break;
      case 2: op.value = 1e-12; break;
      case 3: op.value = 1e15; break;
      case 4: op.value = -static_cast<double>(src.uint_below(1000)); break;
      default: op.value = src.real_in(-10.0, 1e6); break;
    }
    ops.push_back(op);
  }

  // Serial reference.
  obs::Registry serial;
  for (const auto& op : ops) apply(serial, op);

  // Contiguous partition into 1..5 shards, merged in order.
  std::vector<std::unique_ptr<obs::Registry>> shards;
  std::size_t at = 0;
  for (std::size_t s = 0; s < nshards; ++s) {
    auto shard = std::make_unique<obs::Registry>();
    std::size_t take =
        s + 1 == nshards ? ops.size() - at : cuts[s] % (ops.size() - at + 1);
    for (std::size_t i = 0; i < take; ++i) apply(*shard, ops[at + i]);
    at += take;
    shards.push_back(std::move(shard));
  }

  obs::Registry flat;
  for (const auto& shard : shards) flat.merge_from(*shard);
  require(flat.snapshot() == serial.snapshot(),
          "flat shard merge diverged from the serial registry");
  require(flat.json() == serial.json(),
          "flat merge JSON not byte-identical to serial");

  // Commutativity: the shards merged last to first. Gauges are
  // last-write-wins, so only counters and histograms must match.
  obs::Registry reversed;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it)
    reversed.merge_from(**it);
  const obs::MetricsSnapshot want = serial.snapshot();
  const obs::MetricsSnapshot got = reversed.snapshot();
  require(got.counters == want.counters && got.histograms == want.histograms,
          "reverse-order merge diverged from the serial registry");

  // Associativity: group the shards into two intermediates, then merge
  // those — same result again.
  obs::Registry left, right;
  const std::size_t split = split_draw % (shards.size() + 1);
  for (std::size_t s = 0; s < shards.size(); ++s)
    (s < split ? left : right).merge_from(*shards[s]);
  obs::Registry grouped;
  grouped.merge_from(left);
  grouped.merge_from(right);
  require(grouped.snapshot() == serial.snapshot(),
          "two-level merge is not associative with the flat merge");
}

}  // namespace

void register_obs_harnesses() {
  testkit::HarnessRegistry::instance().add(
      {"obs.metrics_merge", metrics_merge, /*max_len=*/512});
}

}  // namespace tinysdr::fuzz
