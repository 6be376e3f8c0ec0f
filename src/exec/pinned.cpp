#include "exec/pinned.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/policy.hpp"
#include "exec/worker_pool.hpp"

namespace tinysdr::exec {

void run_pinned(std::size_t count,
                const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (count == 1) {
    task(0);
    return;
  }

  if (!in_parallel_region() && count <= kMaxThreads) {
    // One participant per task, and a participant claims another task
    // only after its current one returned, so at any moment each live
    // task has a thread to itself.
    (void)WorkerPool::shared().run(count, ExecPolicy::with_threads(count),
                                   task);
    return;
  }

  // Dedicated-thread fallback: pool concurrency is unavailable here.
  std::mutex mu;
  std::exception_ptr first_error;
  auto wrapped = [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!first_error) first_error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(count - 1);
    for (std::size_t i = 1; i < count; ++i)
      threads.emplace_back([&wrapped, i] { wrapped(i); });
    wrapped(0);
  }  // jthreads join here
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace tinysdr::exec
