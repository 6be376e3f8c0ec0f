// Per-item telemetry shards: the one shard protocol of every parallel
// driver (LinkSimulator::sweep, the PHY and OTA campaigns, the
// coexistence matrix, the threaded flowgraph).
//
// The constructor captures the calling thread's metrics registry, tracer
// and flight recorder. A worker running item i holds enter(i), which
// installs item i's own shards: a Registry, and a Tracer and
// FlightRecorder of the captured ones' capacity. Only the sinks the
// caller has installed get shards, so an uninstrumented run creates
// nothing. Folding the items in index order afterwards makes every export
// independent of thread count; an item that never ran folds to nothing.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tinysdr::obs {

class ItemShards {
 public:
  explicit ItemShards(std::size_t items);
  ItemShards(const ItemShards&) = delete;
  ItemShards& operator=(const ItemShards&) = delete;

  /// Item i's shards installed as the calling thread's sinks for the
  /// scope's lifetime; the previous sinks come back on destruction.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class ItemShards;
    Scope(ItemShards& owner, std::size_t i);

    std::optional<MetricsSession> metrics_;
    std::optional<TraceSession> trace_;
    std::optional<FlightSession> flight_;
  };

  [[nodiscard]] Scope enter(std::size_t i) { return Scope{*this, i}; }

  /// Merge item i's shards into the captured sinks and free them. Call in
  /// index order. With `span`, the item's timeline is laid end to end
  /// after the previous one: the tracer and flight recorder shift their
  /// base by `span`, and the tracer returns to track 0.
  void fold(std::size_t i, std::optional<Seconds> span = std::nullopt);
  /// fold(i) for every item, in index order.
  void fold_all();

 private:
  struct Shard {
    std::unique_ptr<Registry> metrics;
    std::unique_ptr<Tracer> trace;
    std::unique_ptr<FlightRecorder> flight;
  };

  Registry* metrics_;
  Tracer* tracer_;
  FlightRecorder* flight_;
  std::vector<Shard> shards_;
};

}  // namespace tinysdr::obs
