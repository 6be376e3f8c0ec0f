// Telemetry memory stays bounded as a run gets longer: a shard registry
// installed through obs::ItemShards keeps O(1) state per instrument, so
// 10^5 counter adds and histogram observations allocate (next to)
// nothing once the instruments exist, and a node event with no sink
// installed allocates nothing at all. Global operator new is replaced
// with a byte counter, which is why this test is its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/shards.hpp"

namespace {
std::atomic<std::size_t> g_allocated{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocated.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tinysdr::obs {
namespace {

void record(Registry& r, int k) {
  // Varied magnitudes and signs, so the exact sums carry several partials.
  const double x = static_cast<double>(k % 97) * 0.1 - 3.3 + 1e-9 * k;
  r.counter("c").add(x);
  r.histogram("h", HistogramSpec::log_scale(0.01, 1e3, 24)).observe(x);
}

TEST(MetricsMemory, ShardStateDoesNotGrowWithOperations) {
  Registry campaign;
  MetricsSession session{campaign};
  ItemShards shards{1};
  std::size_t allocated = 0;
  {
    auto scope = shards.enter(0);
    Registry* shard = metrics();
    ASSERT_NE(shard, nullptr);
    ASSERT_NE(shard, &campaign);
    for (int k = 0; k < 1000; ++k) record(*shard, k);  // warm-up

    const std::size_t before = g_allocated.load();
    for (int k = 1000; k < 101000; ++k) record(*shard, k);
    allocated = g_allocated.load() - before;
  }
  EXPECT_LT(allocated, 4096u) << "bytes allocated by 10^5 add/observe calls";

  shards.fold_all();
  EXPECT_EQ(campaign.histograms().at("h").count(), 101000u);
}

TEST(NullSink, NodeEventsAllocateNothing) {
  ASSERT_EQ(metrics(), nullptr);
  ASSERT_EQ(tracer(), nullptr);
  ASSERT_EQ(flight(), nullptr);
  const std::size_t before = g_allocated.load();
  for (int k = 0; k < 1000; ++k) {
    set_node(7);
    set_time(Seconds{static_cast<double>(k)});
    node_event(FlightLevel::kWarn, "power", "brownout-reboot",
               "power.node_reboots", "bytes_received", k);
  }
  EXPECT_EQ(g_allocated.load() - before, 0u);
}

}  // namespace
}  // namespace tinysdr::obs
