#include "exec/worker_pool.hpp"

#include <algorithm>
#include <chrono>

#include "exec/pool_trace.hpp"
#include "obs/flight.hpp"

namespace tinysdr::exec {

namespace {

/// True while the calling thread is executing a region body; nested
/// parallel regions fall back to inline serial execution.
thread_local bool t_in_region = false;

}  // namespace

bool in_parallel_region() { return t_in_region; }

struct WorkerPool::Job {
  std::size_t n = 0;
  std::size_t participants = 1;
  const Body* body = nullptr;
  /// Next unclaimed index; may run past n by at most `participants`.
  alignas(64) std::atomic<std::size_t> next{0};

  CancellationToken cancel;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  std::atomic<bool> aborted{false};
  std::atomic<int> outcome{static_cast<int>(RunOutcome::kCompleted)};
  std::atomic<std::size_t> completed{0};

  std::mutex error_mu;
  std::exception_ptr error;

  /// Record why the region is stopping; first cause wins.
  void abort(RunOutcome why) {
    int expected = static_cast<int>(RunOutcome::kCompleted);
    outcome.compare_exchange_strong(expected, static_cast<int>(why),
                                    std::memory_order_relaxed);
    aborted.store(true, std::memory_order_relaxed);
  }

  void record_error(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::move(e);
    }
    // Cancelled from the engine's point of view: stop starting items.
    abort(RunOutcome::kCancelled);
  }

  std::atomic<std::size_t> pending{0};  ///< spawned participants still working

  bool traced = false;          ///< a PoolTraceSession was active at launch
  std::uint64_t trace_id = 0;   ///< region id for flow linkage
};

WorkerPool::~WorkerPool() {
  for (auto& w : workers_) w.request_stop();
  job_cv_.notify_all();
  // jthread joins on destruction.
}

std::size_t WorkerPool::spawned_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool;
  return pool;
}

void WorkerPool::ensure_workers(std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < count) {
    std::size_t index = workers_.size();
    workers_.emplace_back(
        [this, index](std::stop_token stop) { worker_main(stop, index); });
  }
}

bool WorkerPool::should_stop(Job& job) {
  if (job.aborted.load(std::memory_order_relaxed)) return true;
  if (job.cancel.cancelled()) {
    job.abort(RunOutcome::kCancelled);
    return true;
  }
  if (job.has_deadline &&
      std::chrono::steady_clock::now() >= job.deadline) {
    job.abort(RunOutcome::kDeadlineExceeded);
    return true;
  }
  return false;
}

void WorkerPool::work(Job& job, std::size_t participant) {
  try {
    while (!should_stop(job)) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) return;
      const double start = job.traced ? pool_trace::now_us() : 0.0;
      (*job.body)(i);
      job.completed.fetch_add(1, std::memory_order_relaxed);
      if (job.traced)
        pool_trace::chunk(job.trace_id, i, participant, start,
                          pool_trace::now_us());
    }
  } catch (...) {
    job.record_error(std::current_exception());
  }
}

void WorkerPool::worker_main(std::stop_token stop, std::size_t index) {
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    job_cv_.wait(lock, stop, [&] {
      return job_ != nullptr && epoch_ != seen_epoch;
    });
    if (stop.stop_requested()) return;
    seen_epoch = epoch_;
    Job* job = job_;
    // Spawned worker `index` is participant index + 1 (caller is 0).
    if (job != nullptr && index + 1 < job->participants) {
      lock.unlock();
      t_in_region = true;
      work(*job, index + 1);
      t_in_region = false;
      lock.lock();
      if (job->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
        done_cv_.notify_all();
    }
  }
}

RunStatus WorkerPool::run(std::size_t n, const ExecPolicy& policy,
                          const Body& body) {
  Job job;
  job.n = n;
  job.body = &body;
  job.cancel = policy.cancel;
  if (policy.deadline) {
    job.has_deadline = true;
    job.deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           policy.deadline->value()));
  }

  std::size_t threads = resolved_threads(policy.threads);
  // Nested regions and trivial spans run inline on the caller.
  if (t_in_region || n <= 1) threads = 1;
  job.participants = std::min(threads, std::max<std::size_t>(n, 1));

  double region_start = 0.0;
  if (pool_trace::active()) {
    job.traced = true;
    job.trace_id = pool_trace::next_region_id();
    region_start = pool_trace::now_us();
  }

  const bool was_in_region = t_in_region;
  if (job.participants == 1) {
    // Inline fast path: no pool involvement, same claim rule.
    t_in_region = true;
    work(job, 0);
    t_in_region = was_in_region;
  } else {
    ensure_workers(job.participants - 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.pending.store(job.participants - 1, std::memory_order_relaxed);
      job_ = &job;
      ++epoch_;
    }
    job_cv_.notify_all();
    t_in_region = true;
    work(job, 0);
    t_in_region = was_in_region;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] {
        return job.pending.load(std::memory_order_acquire) == 0;
      });
      job_ = nullptr;
    }
  }

  if (job.traced)
    pool_trace::region(job.trace_id, n, job.participants, region_start,
                       pool_trace::now_us());

  {
    std::lock_guard<std::mutex> lock(job.error_mu);
    if (job.error) std::rethrow_exception(job.error);
  }
  RunStatus status;
  status.outcome =
      static_cast<RunOutcome>(job.outcome.load(std::memory_order_relaxed));
  status.items_completed = job.completed.load(std::memory_order_relaxed);
  // A tripped deadline or cancellation is exactly what a post-mortem
  // needs to see; completed regions stay silent so the flight log keeps
  // the byte-identical-across-threads guarantee.
  if (!status.complete()) {
    if (auto* f = obs::flight()) {
      f->record(obs::FlightLevel::kWarn, "exec", to_string(status.outcome),
                {obs::TraceArg::num(
                     "items_completed",
                     static_cast<double>(status.items_completed)),
                 obs::TraceArg::num("items_total", static_cast<double>(n))});
    }
  }
  return status;
}

}  // namespace tinysdr::exec
