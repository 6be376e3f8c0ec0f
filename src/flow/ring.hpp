// Lock-free SPSC sample ring: the edge type of the zero-copy flowgraph.
//
// Modeled on the DMA streaming stacks of real SDR front ends (litex_m2sdr's
// ring of DMA descriptors + hardware sample counter): a fixed, power-of-two
// capacity buffer indexed by two free-running 64-bit counters. The producer
// owns `head_` (total samples ever produced), the consumer owns `tail_`
// (total samples ever consumed); occupancy is `head - tail`, the slot of
// sample N is `N & mask`, and the counters never wrap in practice (2^64
// samples at 4 MHz is ~146 millennia). Those counters double as the edge's
// monotonic absolute sample clock — `stream_pos()` on a view is the index
// of its first sample, which is what timed-TX blocks key off.
//
// Zero-copy protocol: a side *acquires* a view over the in-place storage
// (ReadView over committed samples, WriteView over free slots; a wrap
// shows up as the view's second span), works directly in that memory, then
// *commits* how much it actually used. Commit is the only operation that
// publishes: `commit_write` release-stores head (making the samples
// visible to the consumer), `commit_read` release-stores tail (returning
// the slots to the producer). Each side caches the opposite counter and
// refreshes it only when the cached value is insufficient, so the steady
// state costs one relaxed load + one release store per batch.
//
// Blocking (threaded scheduler) mode: waiters park on dedicated event
// epochs rather than on head/tail, because std::atomic::wait only wakes
// when the *waited word* changes — close() must be able to wake a side
// without forging sample counts. Event bumps and notifies only happen when
// `set_blocking(true)` was called, so the single-threaded deterministic
// schedule pays nothing for them.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "dsp/types.hpp"

namespace tinysdr::flow {

inline constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 14;

/// Consumer-side window over committed samples. `first()`/`second()` are
/// the contiguous region(s) — second is empty unless the window wraps.
class ReadView {
 public:
  ReadView() = default;

  [[nodiscard]] std::size_t size() const {
    return first_.size() + second_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::span<const dsp::Complex> first() const { return first_; }
  [[nodiscard]] std::span<const dsp::Complex> second() const {
    return second_;
  }

  [[nodiscard]] const dsp::Complex& operator[](std::size_t i) const {
    return i < first_.size() ? first_[i] : second_[i - first_.size()];
  }

  /// Largest contiguous span starting at `offset`, at most `max_len` long.
  [[nodiscard]] std::span<const dsp::Complex> chunk(
      std::size_t offset, std::size_t max_len) const {
    std::span<const dsp::Complex> seg =
        offset < first_.size() ? first_.subspan(offset)
                               : second_.subspan(offset - first_.size());
    return seg.subspan(0, std::min(seg.size(), max_len));
  }

  /// Copy the view's first dst.size() samples out (dst.size() <= size()).
  void copy_to(std::span<dsp::Complex> dst) const {
    std::size_t n = std::min(dst.size(), first_.size());
    std::copy_n(first_.begin(), n, dst.begin());
    std::copy_n(second_.begin(), dst.size() - n, dst.begin() + n);
  }

  /// Absolute index (per the edge's monotonic sample counter) of the
  /// view's first sample.
  [[nodiscard]] std::uint64_t stream_pos() const { return stream_pos_; }

  /// True when the producer has closed and this view already covers every
  /// sample that will ever exist: after consuming it the stream is over.
  [[nodiscard]] bool done() const { return done_; }

 private:
  friend class SpscRing;
  std::span<const dsp::Complex> first_{};
  std::span<const dsp::Complex> second_{};
  std::uint64_t stream_pos_ = 0;
  bool done_ = false;
};

/// Producer-side window over free slots; same contiguity contract.
class WriteView {
 public:
  WriteView() = default;

  [[nodiscard]] std::size_t size() const {
    return first_.size() + second_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::span<dsp::Complex> first() const { return first_; }
  [[nodiscard]] std::span<dsp::Complex> second() const { return second_; }

  [[nodiscard]] dsp::Complex& operator[](std::size_t i) const {
    return i < first_.size() ? first_[i] : second_[i - first_.size()];
  }

  [[nodiscard]] std::span<dsp::Complex> chunk(std::size_t offset,
                                              std::size_t max_len) const {
    std::span<dsp::Complex> seg =
        offset < first_.size() ? first_.subspan(offset)
                               : second_.subspan(offset - first_.size());
    return seg.subspan(0, std::min(seg.size(), max_len));
  }

  void fill(std::size_t offset, std::size_t n, dsp::Complex value) const {
    while (n > 0) {
      auto seg = chunk(offset, n);
      std::fill(seg.begin(), seg.end(), value);
      offset += seg.size();
      n -= seg.size();
    }
  }

  void write(std::size_t offset, std::span<const dsp::Complex> src) const {
    while (!src.empty()) {
      auto seg = chunk(offset, src.size());
      std::copy_n(src.begin(), seg.size(), seg.begin());
      offset += seg.size();
      src = src.subspan(seg.size());
    }
  }

  /// Absolute index the view's first slot will have once committed.
  [[nodiscard]] std::uint64_t stream_pos() const { return stream_pos_; }

 private:
  friend class SpscRing;
  std::span<dsp::Complex> first_{};
  std::span<dsp::Complex> second_{};
  std::uint64_t stream_pos_ = 0;
};

/// Copy `n` samples of `in` from offset `from` into `out` at offset `to`,
/// one contiguous chunk at a time.
inline void copy_samples(const ReadView& in, std::size_t from,
                         const WriteView& out, std::size_t to,
                         std::size_t n) {
  while (n > 0) {
    auto seg = in.chunk(from, n);
    out.write(to, seg);
    from += seg.size();
    to += seg.size();
    n -= seg.size();
  }
}

class SpscRing {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Capacity is rounded up to a power of two (mask indexing).
  explicit SpscRing(std::size_t capacity = kDefaultRingCapacity) {
    if (capacity == 0) throw std::invalid_argument("SpscRing: capacity 0");
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    data_.assign(cap, dsp::Complex{0.0f, 0.0f});
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return data_.size(); }

  /// Enable event bumps + notifies on commit/close so wait_readable /
  /// wait_writable can park. Call before handing the ring to two threads.
  void set_blocking(bool blocking) { blocking_ = blocking; }

  // ----------------------------------------------------------- producer
  /// Free-slot count from the producer's point of view (refreshes the
  /// cached consumer counter).
  [[nodiscard]] std::size_t writable() {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    cached_tail_ = tail_.load(std::memory_order_acquire);
    return capacity() - static_cast<std::size_t>(head - cached_tail_);
  }

  /// Acquire up to `max_n` free slots as an in-place view. The view stays
  /// valid until the matching commit_write(); acquiring again re-derives.
  [[nodiscard]] WriteView acquire_write(std::size_t max_n = npos) {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t free =
        capacity() - static_cast<std::size_t>(head - cached_tail_);
    if (free < max_n || free == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      free = capacity() - static_cast<std::size_t>(head - cached_tail_);
    }
    std::size_t n = std::min(free, max_n);
    WriteView view;
    std::size_t offset = static_cast<std::size_t>(head) & mask_;
    std::size_t run = std::min(n, capacity() - offset);
    view.first_ = std::span<dsp::Complex>{data_.data() + offset, run};
    view.second_ = std::span<dsp::Complex>{data_.data(), n - run};
    view.stream_pos_ = head;
    acquired_write_ = n;
    return view;
  }

  /// Publish the first `n` slots of the last acquired WriteView. Enforces
  /// the protocol: n must not exceed what acquire_write() handed out.
  void commit_write(std::size_t n) {
    if (n > acquired_write_)
      throw std::logic_error("SpscRing: commit_write exceeds acquired view");
    acquired_write_ -= n;
    if (n == 0) return;
    head_.store(head_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
    if (blocking_) {
      readable_events_.fetch_add(1, std::memory_order_release);
      readable_events_.notify_one();
    }
  }

  /// Park until at least `min_n` slots are free or the ring is closed.
  /// Returns the writable count (which may be < min_n only when closed).
  std::size_t wait_writable(std::size_t min_n = 1) {
    for (;;) {
      std::uint64_t ev = writable_events_.load(std::memory_order_acquire);
      std::size_t free = writable();
      if (free >= min_n || closed_.load(std::memory_order_acquire))
        return free;
      producer_waits_.fetch_add(1, std::memory_order_relaxed);
      writable_events_.wait(ev, std::memory_order_acquire);
    }
  }

  /// Producer is finished: no more samples will ever be committed. Wakes
  /// both sides. (The graph also uses this to poison edges on abort.)
  void close() {
    closed_.store(true, std::memory_order_release);
    readable_events_.fetch_add(1, std::memory_order_release);
    writable_events_.fetch_add(1, std::memory_order_release);
    readable_events_.notify_all();
    writable_events_.notify_all();
  }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  // ----------------------------------------------------------- consumer
  /// Committed-sample count from the consumer's point of view.
  [[nodiscard]] std::size_t readable() {
    cached_head_ = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(
        cached_head_ - tail_.load(std::memory_order_relaxed));
  }

  [[nodiscard]] ReadView acquire_read(std::size_t max_n = npos) {
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(cached_head_ - tail);
    if (avail < max_n) {
      cached_head_ = head_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(cached_head_ - tail);
    }
    std::size_t n = std::min(avail, max_n);
    ReadView view;
    std::size_t offset = static_cast<std::size_t>(tail) & mask_;
    std::size_t run = std::min(n, capacity() - offset);
    view.first_ = std::span<const dsp::Complex>{data_.data() + offset, run};
    view.second_ = std::span<const dsp::Complex>{data_.data(), n - run};
    view.stream_pos_ = tail;
    // done: producer closed and nothing exists beyond this view. Re-check
    // head AFTER observing closed so a close racing a final commit can't
    // yield done=true with samples missing (commit happens-before close
    // on the producer thread).
    if (closed_.load(std::memory_order_acquire)) {
      cached_head_ = head_.load(std::memory_order_acquire);
      view.done_ = cached_head_ - tail == n;
    }
    acquired_read_ = n;
    return view;
  }

  void commit_read(std::size_t n) {
    if (n > acquired_read_)
      throw std::logic_error("SpscRing: commit_read exceeds acquired view");
    acquired_read_ -= n;
    if (n == 0) return;
    tail_.store(tail_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
    if (blocking_) {
      writable_events_.fetch_add(1, std::memory_order_release);
      writable_events_.notify_one();
    }
  }

  /// Park until samples are readable or the stream is over. Returns the
  /// readable count; 0 means closed-and-drained.
  std::size_t wait_readable() {
    for (;;) {
      std::uint64_t ev = readable_events_.load(std::memory_order_acquire);
      std::size_t avail = readable();
      if (avail > 0) return avail;
      if (closed_.load(std::memory_order_acquire)) return 0;
      consumer_waits_.fetch_add(1, std::memory_order_relaxed);
      readable_events_.wait(ev, std::memory_order_acquire);
    }
  }

  // -------------------------------------------------------------- stats
  /// Monotonic per-edge sample counters (the litex-style sample_counter).
  [[nodiscard]] std::uint64_t total_produced() const {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t total_consumed() const {
    return tail_.load(std::memory_order_acquire);
  }
  /// Occupancy snapshot (exact between activations; approximate while
  /// both sides are live).
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_acquire));
  }
  /// Times the producer parked waiting for credit (backpressure stalls).
  [[nodiscard]] std::uint64_t producer_waits() const {
    return producer_waits_.load(std::memory_order_relaxed);
  }
  /// Times the consumer parked waiting for samples (credits waited).
  [[nodiscard]] std::uint64_t consumer_waits() const {
    return consumer_waits_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<dsp::Complex> data_;
  std::size_t mask_ = 0;
  bool blocking_ = false;

  // Producer cache line: its own counter plus what it believes about the
  // consumer. The consumer's mirror sits on its own line; the event words
  // get a third so notify traffic doesn't bounce the counters.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;
  std::size_t acquired_write_ = 0;

  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;
  std::size_t acquired_read_ = 0;

  alignas(64) std::atomic<std::uint64_t> readable_events_{0};
  std::atomic<std::uint64_t> writable_events_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> producer_waits_{0};
  std::atomic<std::uint64_t> consumer_waits_{0};
};

}  // namespace tinysdr::flow
