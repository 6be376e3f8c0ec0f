#include "exec/pool_trace.hpp"

#include <atomic>
#include <chrono>
#include <mutex>

namespace tinysdr::exec {

namespace {

struct PoolTraceState {
  std::mutex mu;
  std::atomic<obs::Tracer*> sink{nullptr};
  std::chrono::steady_clock::time_point t0{};
  std::atomic<std::uint64_t> next_region{0};
};

PoolTraceState& state() {
  static PoolTraceState s;
  return s;
}

}  // namespace

PoolTraceSession::PoolTraceSession(obs::Tracer& sink) {
  PoolTraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  previous_ = s.sink.load(std::memory_order_relaxed);
  s.t0 = std::chrono::steady_clock::now();
  s.sink.store(&sink, std::memory_order_release);
}

PoolTraceSession::~PoolTraceSession() {
  PoolTraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.sink.store(previous_, std::memory_order_release);
}

namespace pool_trace {

std::uint64_t region_flow_id(std::uint64_t region_id) {
  // splitmix64 finalizer over a salted id keeps pool flows disjoint from
  // OTA chunk flows, which use a golden-ratio product of the link seed.
  std::uint64_t z = region_id + 0xB5297A4D2F6E5B37ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool active() {
  return state().sink.load(std::memory_order_relaxed) != nullptr;
}

double now_us() {
  PoolTraceState& s = state();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - s.t0)
      .count();
}

std::uint64_t next_region_id() {
  return state().next_region.fetch_add(1, std::memory_order_relaxed);
}

void chunk(std::uint64_t region_id, std::size_t index,
           std::size_t participant, double start_us, double end_us) {
  PoolTraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  obs::Tracer* t = s.sink.load(std::memory_order_relaxed);
  if (t == nullptr) return;
  const auto track = static_cast<std::uint32_t>(participant + 1);
  t->name_track(track, "worker-" + std::to_string(participant));
  t->set_track(track);
  t->set_time(Seconds::from_microseconds(start_us));
  t->flow_step("pool", "dispatch", region_flow_id(region_id));
  std::vector<obs::TraceArg> args;
  args.push_back(obs::TraceArg::num("index", static_cast<double>(index)));
  t->complete("pool", "chunk", Seconds::from_microseconds(start_us),
              Seconds::from_microseconds(end_us - start_us),
              std::move(args));
}

void region(std::uint64_t region_id, std::size_t n, std::size_t participants,
            double start_us, double end_us) {
  PoolTraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  obs::Tracer* t = s.sink.load(std::memory_order_relaxed);
  if (t == nullptr) return;
  t->name_track(0, "parallel_for");
  t->set_track(0);
  t->set_time(Seconds::from_microseconds(start_us));
  t->flow_begin("pool", "dispatch", region_flow_id(region_id));
  std::vector<obs::TraceArg> args;
  args.push_back(obs::TraceArg::num("items", static_cast<double>(n)));
  args.push_back(
      obs::TraceArg::num("participants", static_cast<double>(participants)));
  t->complete("pool", "region", Seconds::from_microseconds(start_us),
              Seconds::from_microseconds(end_us - start_us),
              std::move(args));
}

}  // namespace pool_trace

}  // namespace tinysdr::exec
