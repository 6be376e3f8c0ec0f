// Execution policy for parallel regions: how many workers, and the
// cancellation / deadline budget the region runs under.
#pragma once

#include <cstddef>
#include <optional>

#include "common/units.hpp"
#include "exec/cancel.hpp"

namespace tinysdr::exec {

/// Why a parallel region stopped.
enum class RunOutcome {
  kCompleted,         ///< every item ran
  kCancelled,         ///< the region's CancellationToken fired
  kDeadlineExceeded,  ///< the wall-clock budget ran out
};

struct RunStatus {
  RunOutcome outcome = RunOutcome::kCompleted;
  std::size_t items_completed = 0;

  [[nodiscard]] bool complete() const {
    return outcome == RunOutcome::kCompleted;
  }
};

[[nodiscard]] const char* to_string(RunOutcome outcome);

struct ExecPolicy {
  /// Worker count for the region, including the calling thread.
  /// 0 = resolve from the TINYSDR_THREADS environment variable, falling
  /// back to std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Checked before every claim; cancelling stops new items from starting.
  CancellationToken cancel{};
  /// Wall-clock budget for the whole region, checked before every claim.
  std::optional<Seconds> deadline{};

  [[nodiscard]] static ExecPolicy serial() { return ExecPolicy{.threads = 1}; }
  [[nodiscard]] static ExecPolicy with_threads(std::size_t n) {
    return ExecPolicy{.threads = n};
  }
  /// This policy with a (tighter) wall-clock budget. Used by the serve
  /// engine to spread one job-level deadline across its parallel regions:
  /// each region gets the time remaining, never more than it had.
  [[nodiscard]] ExecPolicy with_budget(Seconds budget) const {
    ExecPolicy p = *this;
    if (!p.deadline || budget < *p.deadline) p.deadline = budget;
    return p;
  }
};

/// Resolve a requested thread count: `requested` if nonzero, else the
/// TINYSDR_THREADS environment variable, else hardware concurrency.
/// Always at least 1, clamped to kMaxThreads.
[[nodiscard]] std::size_t resolved_threads(std::size_t requested);

inline constexpr std::size_t kMaxThreads = 512;

}  // namespace tinysdr::exec
