// Standard block library for the zero-copy flowgraph: the platform's DSP
// primitives in GNU-Radio-style clothing, working in place on ring views.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>

#include "dsp/fir.hpp"
#include "dsp/nco.hpp"
#include "flow/graph.hpp"
#include "obs/metrics.hpp"
#include "radio/quantizer.hpp"

namespace tinysdr::flow {

/// Per-activation production cap for sources: bounds single-thread
/// scheduler latency per pass without affecting output (blocks are
/// chunk-size independent). 4096 complex samples (32 KiB) amortizes
/// per-activation accounting while staying L1/L2 resident downstream.
inline constexpr std::size_t kChunk = 4096;

/// Source emitting a fixed sample vector once.
class VectorSource : public Block {
 public:
  explicit VectorSource(dsp::Samples data)
      : Block("vector_source"), data_(std::move(data)) {}

  WorkResult work(const ReadView&, WriteView& out) override {
    std::size_t n = std::min(out.size(), data_.size() - pos_);
    out.write(0, std::span<const dsp::Complex>{data_.data() + pos_, n});
    pos_ += n;
    return {0, n};
  }
  [[nodiscard]] bool finished() const override { return pos_ >= data_.size(); }

 private:
  dsp::Samples data_;
  std::size_t pos_ = 0;
};

/// Source emitting `count` samples of a complex tone from the DDS,
/// synthesized directly into the ring.
class NcoSource : public Block {
 public:
  NcoSource(double cycles_per_sample, std::size_t count)
      : Block("nco_source"), count_(count) {
    nco_.set_frequency(cycles_per_sample);
  }

  WorkResult work(const ReadView&, WriteView& out) override {
    std::size_t n = std::min({kChunk, count_ - emitted_, out.size()});
    std::size_t written = 0;
    while (written < n) {
      auto seg = out.chunk(written, n - written);
      for (auto& s : seg) s = nco_.next();
      written += seg.size();
    }
    emitted_ += n;
    return {0, n};
  }
  [[nodiscard]] bool finished() const override { return emitted_ >= count_; }

 private:
  dsp::Nco nco_;
  std::size_t count_;
  std::size_t emitted_ = 0;
};

/// Streaming FIR filter: contiguous input runs go straight through
/// FirFilter::filter_into into the output view — no staging buffers.
class FirBlock : public Block {
 public:
  explicit FirBlock(std::vector<float> taps)
      : Block("fir"), fir_(std::move(taps)) {}

  WorkResult work(const ReadView& in, WriteView& out) override {
    std::size_t n = std::min(in.size(), out.size());
    std::size_t done = 0;
    while (done < n) {
      auto src = in.chunk(done, n - done);
      auto dst = out.chunk(done, src.size());
      std::size_t m = std::min(src.size(), dst.size());
      fir_.filter_into(src.first(m), dst.first(m));
      done += m;
    }
    return {n, n};
  }

 private:
  dsp::FirFilter fir_;
};

/// Keep-one-in-N decimator (phase carried across activations).
class DecimatorBlock : public Block {
 public:
  explicit DecimatorBlock(std::size_t factor)
      : Block("decimator"), factor_(factor) {
    if (factor == 0) throw std::invalid_argument("DecimatorBlock: factor 0");
  }

  WorkResult work(const ReadView& in, WriteView& out) override {
    // Segment-at-a-time strided copy (per-sample view indexing would
    // branch into the ring's two spans on every access).
    std::size_t consumed = 0;
    std::size_t produced = 0;
    const std::size_t n = in.size();
    while (consumed < n) {
      auto src = in.chunk(consumed, n - consumed);
      auto dst = out.chunk(produced, out.size() - produced);
      std::size_t si = phase_ == 0 ? 0 : factor_ - phase_;
      std::size_t di = 0;
      while (si < src.size() && di < dst.size()) {
        dst[di++] = src[si];
        si += factor_;
      }
      if (si < src.size()) {
        // Output segment full: stop at the last unconsumed input.
        phase_ = 0;
        consumed += si;
        produced += di;
        break;
      }
      phase_ = (phase_ + src.size()) % factor_;
      consumed += src.size();
      produced += di;
    }
    return {consumed, produced};
  }

 private:
  std::size_t factor_;
  std::size_t phase_ = 0;
};

/// Block-AGC + ADC quantization (the radio receive path as a block).
class QuantizerBlock : public Block {
 public:
  explicit QuantizerBlock(int bits = 13)
      : Block("quantizer"), quantizer_(bits, 1.0f) {}

  WorkResult work(const ReadView& in, WriteView& out) override {
    const std::size_t n = std::min(in.size(), out.size());
    for (std::size_t done = 0; done < n;) {
      const auto seg = in.chunk(done, n - done);
      out.write(done, seg);
      done += seg.size();
    }
    const std::size_t head = std::min(n, out.first().size());
    quantizer_.roundtrip_in_place(out.first().first(head));
    quantizer_.roundtrip_in_place(out.second().first(n - head));
    return {n, n};
  }

 private:
  radio::IqQuantizer quantizer_;
};

/// Apply an arbitrary per-sample function (lambda block).
class MapBlock : public Block {
 public:
  using Fn = std::function<dsp::Complex(dsp::Complex)>;
  explicit MapBlock(Fn fn) : Block("map"), fn_(std::move(fn)) {}

  WorkResult work(const ReadView& in, WriteView& out) override {
    std::size_t n = std::min(in.size(), out.size());
    for (std::size_t i = 0; i < n; ++i) out[i] = fn_(in[i]);
    return {n, n};
  }

 private:
  Fn fn_;
};

/// Release a burst when the edge's sample counter reaches a target
/// (litex_m2sdr's timed_tx against its hardware sample_counter): emits
/// silence until the output stream position hits `fire_at_sample`, then
/// passes the input burst through verbatim. With `total_samples` set the
/// gate keeps the TX timeline running with silence after the burst until
/// that many samples have left, then ends the stream.
class TimedTxGate : public Block {
 public:
  explicit TimedTxGate(std::uint64_t fire_at_sample,
                       std::optional<std::uint64_t> total_samples = {})
      : Block("timed_tx_gate"),
        fire_at_(fire_at_sample),
        total_(total_samples) {
    if (total_ && *total_ < fire_at_)
      throw std::invalid_argument("TimedTxGate: total < fire_at");
  }

  WorkResult work(const ReadView& in, WriteView& out) override {
    std::uint64_t pos = out.stream_pos();
    std::size_t produced = 0;
    // Lead-in silence up to the fire point.
    if (pos < fire_at_) {
      std::size_t zeros = static_cast<std::size_t>(
          std::min<std::uint64_t>(fire_at_ - pos, out.size()));
      out.fill(0, zeros, dsp::Complex{0.0f, 0.0f});
      produced += zeros;
    }
    // The burst itself.
    std::size_t n = std::min(in.size(), out.size() - produced);
    copy_samples(in, 0, out, produced, n);
    produced += n;
    // Tail silence once the burst is fully through, if a stream length
    // was requested; returning {0,0} afterwards retires the gate.
    if (total_ && in.done() && in.size() == n) {
      std::uint64_t sent = pos + produced;
      if (sent < *total_) {
        std::size_t zeros = static_cast<std::size_t>(std::min<std::uint64_t>(
            *total_ - sent, out.size() - produced));
        out.fill(produced, zeros, dsp::Complex{0.0f, 0.0f});
        produced += zeros;
      }
    }
    return {n, produced};
  }

 private:
  std::uint64_t fire_at_;
  std::optional<std::uint64_t> total_;
};

/// Terminal sink collecting everything (up to an optional cap; overflow
/// is consumed-but-dropped and counted, so capped sinks never stall a
/// streaming graph).
class VectorSink : public Block {
 public:
  static constexpr std::size_t kUncapped =
      std::numeric_limits<std::size_t>::max();

  explicit VectorSink(std::size_t cap = kUncapped)
      : Block("vector_sink"), cap_(cap) {}

  WorkResult work(const ReadView& in, WriteView&) override {
    std::size_t keep = std::min(in.size(), cap_ - data_.size());
    std::size_t old = data_.size();
    data_.resize(old + keep);
    in.copy_to(std::span<dsp::Complex>{data_.data() + old, keep});
    std::size_t dropped = in.size() - keep;
    if (dropped > 0) {
      dropped_ += dropped;
      if (auto* m = obs::metrics())
        m->counter("flow.sink_overflow").add(static_cast<double>(dropped));
    }
    return {in.size(), 0};
  }

  [[nodiscard]] const dsp::Samples& data() const { return data_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  dsp::Samples data_;
  std::size_t cap_;
  std::uint64_t dropped_ = 0;
};

/// Terminal sink measuring mean power and peak magnitude in place.
class PowerProbe : public Block {
 public:
  PowerProbe() : Block("power_probe") {}

  WorkResult work(const ReadView& in, WriteView&) override {
    for (auto seg : {in.first(), in.second()}) {
      for (const auto& s : seg) {
        double m = std::norm(s);
        power_sum_ += m;
        peak_ = std::max(peak_, std::sqrt(m));
        ++count_;
      }
    }
    return {in.size(), 0};
  }

  [[nodiscard]] double mean_power() const {
    return count_ == 0 ? 0.0 : power_sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double peak() const { return peak_; }
  [[nodiscard]] std::size_t samples() const { return count_; }

 private:
  double power_sum_ = 0.0;
  double peak_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace tinysdr::flow
