// Drop-oldest event ring on a sim-time clock: the storage, clock and
// shard merge rule shared by the Tracer and the FlightRecorder. Once
// `capacity` items are held, each push overwrites the oldest and counts
// it as dropped. absorb() appends a shard's items oldest first, with
// their timestamps offset by this ring's base.
//
// A shard ring with the same capacity as the ring it is absorbed into
// gives exactly the serial result: an item a shard drops has `capacity`
// newer items after it, so the target ring would have dropped it too, and
// the dropped counts add up to the serial count.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace tinysdr::obs {

template <typename T>  // T: a record with a `double ts_us` member
class EventRing {
 public:
  explicit EventRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Current absolute sim time in microseconds (base + relative clock).
  [[nodiscard]] double now_us() const { return base_us_ + now_us_; }
  void set_time(Seconds t) { now_us_ = t.microseconds(); }
  /// base += dt, and the relative clock restarts.
  void shift_base(Seconds dt) {
    base_us_ += dt.microseconds();
    now_us_ = 0.0;
  }

  void push(T item) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));  // oldest stays at items_[0]
      return;
    }
    items_[next_] = std::move(item);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  }

  void absorb(const EventRing& shard) {
    shard.for_each([this](const T& item) {
      T copy = item;
      copy.ts_us += base_us_;
      push(std::move(copy));
    });
    dropped_ += shard.dropped_;
  }

  /// Visit the held items oldest first.
  template <typename F>
  void for_each(F&& visit) const {
    for (std::size_t i = 0; i < items_.size(); ++i)
      visit(items_[(next_ + i) % items_.size()]);
  }

  /// The held items oldest first (a copy).
  [[nodiscard]] std::vector<T> items() const {
    std::vector<T> out;
    out.reserve(items_.size());
    for_each([&out](const T& item) { out.push_back(item); });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<T> items_;     ///< grows to capacity_, then wraps
  std::size_t next_ = 0;     ///< oldest item once full, else 0
  std::size_t dropped_ = 0;  ///< items overwritten after overflow
  double base_us_ = 0.0;
  double now_us_ = 0.0;
};

}  // namespace tinysdr::obs
