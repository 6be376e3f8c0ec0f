#include "obs/shards.hpp"

namespace tinysdr::obs {

ItemShards::ItemShards(std::size_t items)
    : metrics_(metrics()), tracer_(tracer()), flight_(flight()),
      shards_(items) {}

ItemShards::Scope::Scope(ItemShards& owner, std::size_t i) {
  Shard& shard = owner.shards_[i];
  if (owner.metrics_ != nullptr) {
    shard.metrics = std::make_unique<Registry>();
    metrics_.emplace(*shard.metrics);
  }
  if (owner.tracer_ != nullptr) {
    shard.trace = std::make_unique<Tracer>(owner.tracer_->capacity());
    trace_.emplace(*shard.trace);
  }
  if (owner.flight_ != nullptr) {
    shard.flight =
        std::make_unique<FlightRecorder>(owner.flight_->capacity());
    flight_.emplace(*shard.flight);
  }
}

void ItemShards::fold(std::size_t i, std::optional<Seconds> span) {
  Shard& shard = shards_[i];
  if (shard.trace != nullptr) {
    tracer_->absorb(*shard.trace);
    if (span) {
      tracer_->shift_base(*span);
      tracer_->set_track(0);
    }
  }
  if (shard.flight != nullptr) {
    flight_->absorb(*shard.flight);
    if (span) flight_->shift_base(*span);
  }
  if (shard.metrics != nullptr) metrics_->merge_from(*shard.metrics);
  shard = Shard{};
}

void ItemShards::fold_all() {
  for (std::size_t i = 0; i < shards_.size(); ++i) fold(i);
}

}  // namespace tinysdr::obs
