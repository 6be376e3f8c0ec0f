// Zero-copy streaming runtime throughput: the same NCO -> 14-tap FIR ->
// decimate-by-4 -> sink chain run three ways —
//
//   copy:     a faithful replica of the original copy-based Ring engine
//             (vector push/pop staging, per-chunk allocation, a per-sample
//             direct-form FIR) as shipped before the SPSC rewrite;
//   spsc:     the zero-copy FlowGraph on lock-free SPSC rings, blocks
//             writing through acquired span views (FirFilter::filter_into
//             straight into ring memory, no staging vectors);
//   threaded: the same graph with every block pinned to its own worker.
//
// Headline scalars: Msamples/s per path and speedup_spsc_vs_copy (the
// acceptance bar is >= 5x). `deterministic_match` checks the threaded
// sink output is byte-identical to the single-thread schedule, and
// `copy_match_ok` that the copy engine's output has the same values.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dsp/fir.hpp"
#include "dsp/nco.hpp"
#include "flow/blocks.hpp"
#include "flow/graph.hpp"

using namespace tinysdr;

namespace {

constexpr std::size_t kInputSamples = std::size_t{1} << 22;
constexpr std::size_t kFirTaps = 14;
constexpr double kCutoff = 0.125;
constexpr std::size_t kDecim = 4;
constexpr double kCycles = 0.02;
constexpr int kReps = 5;

// ------------------------------------------------------------------ copy
// Replica of the pre-rewrite engine (see git history of src/flow/): a
// bounded FIFO backed by a std::vector with amortized compaction, blocks
// staging every chunk through freshly grown vectors.
class CopyRing {
 public:
  explicit CopyRing(std::size_t capacity = std::size_t{1} << 14)
      : capacity_(capacity) {}

  [[nodiscard]] std::size_t size() const { return data_.size() - head_; }
  [[nodiscard]] std::size_t space() const { return capacity_ - size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  std::size_t push(std::span<const dsp::Complex> in) {
    std::size_t n = std::min(in.size(), space());
    data_.insert(data_.end(), in.begin(),
                 in.begin() + static_cast<std::ptrdiff_t>(n));
    return n;
  }

  std::size_t pop(std::size_t max, dsp::Samples& out) {
    std::size_t n = std::min(max, data_.size() - head_);
    out.insert(out.end(), data_.begin() + static_cast<std::ptrdiff_t>(head_),
               data_.begin() + static_cast<std::ptrdiff_t>(head_ + n));
    head_ += n;
    if (head_ > data_.size() / 2 && head_ > 1024) {
      data_.erase(data_.begin(),
                  data_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return n;
  }

 private:
  std::size_t capacity_;
  std::vector<dsp::Complex> data_;
  std::size_t head_ = 0;
};

constexpr std::size_t kCopyChunk = 1024;

// The shipped engine's per-sample FIR: a direct-form filter over a
// circular delay line, one call per sample.
class CopyFir {
 public:
  explicit CopyFir(std::vector<float> taps)
      : taps_(std::move(taps)), delay_(taps_.size()) {}

  dsp::Complex process(dsp::Complex in) {
    delay_[head_] = in;
    dsp::Complex acc{0.0f, 0.0f};
    std::size_t idx = head_;
    for (float tap : taps_) {
      acc += delay_[idx] * tap;
      idx = (idx == 0) ? delay_.size() - 1 : idx - 1;
    }
    head_ = (head_ + 1) % delay_.size();
    return acc;
  }

 private:
  std::vector<float> taps_;
  dsp::Samples delay_;
  std::size_t head_ = 0;
};

dsp::Samples run_copy_engine() {
  dsp::Nco nco;
  nco.set_frequency(kCycles);
  CopyFir fir{dsp::design_lowpass(kFirTaps, kCutoff)};
  CopyRing src_fir, fir_dec;
  dsp::Samples sink;
  sink.reserve(kInputSamples / kDecim + 1);

  std::size_t emitted = 0;
  std::size_t phase = 0;
  for (;;) {
    bool progress = false;
    // NCO source: stage a chunk, push what fits.
    if (emitted < kInputSamples) {
      std::size_t n =
          std::min({kCopyChunk, kInputSamples - emitted, src_fir.space()});
      if (n > 0) {
        dsp::Samples chunk;
        chunk.reserve(n);
        for (std::size_t i = 0; i < n; ++i) chunk.push_back(nco.next());
        emitted += src_fir.push(chunk);
        progress = true;
      }
    }
    // FIR: pop a chunk, filter into a fresh vector, push. The seed's
    // FirFilter::filter was a per-sample loop over a circular delay line
    // (CopyFir); replicate that here so the baseline measures the engine
    // as it shipped rather than inheriting the block kernel this rewrite
    // introduced.
    {
      std::size_t n = std::min(src_fir.size(), fir_dec.space());
      if (n > 0) {
        dsp::Samples chunk;
        src_fir.pop(std::min(n, kCopyChunk), chunk);
        dsp::Samples filtered;
        filtered.reserve(chunk.size());
        for (dsp::Complex s : chunk) filtered.push_back(fir.process(s));
        fir_dec.push(filtered);
        progress = true;
      }
    }
    // Decimator straight into the sink (unbounded, like VectorSink).
    if (!fir_dec.empty()) {
      dsp::Samples chunk;
      fir_dec.pop(kCopyChunk, chunk);
      for (const auto& s : chunk) {
        if (phase == 0) sink.push_back(s);
        phase = (phase + 1) % kDecim;
      }
      progress = true;
    }
    if (!progress) break;
  }
  return sink;
}

// ------------------------------------------------------------------ spsc
dsp::Samples run_spsc_engine(bool threaded) {
  flow::FlowGraph graph;
  auto* src = graph.add_block<flow::NcoSource>(kCycles, kInputSamples);
  auto* fir =
      graph.add_block<flow::FirBlock>(dsp::design_lowpass(kFirTaps, kCutoff));
  auto* dec = graph.add_block<flow::DecimatorBlock>(kDecim);
  auto* sink = graph.add_block<flow::VectorSink>();
  graph.connect(src, fir);
  graph.connect(fir, dec);
  graph.connect(dec, sink);
  auto report = threaded ? graph.run_threaded() : graph.run();
  if (!report) {
    std::cerr << "flow graph did not drain: " << to_string(report.state)
              << "\n";
    std::exit(1);
  }
  return sink->data();
}

template <typename F>
double best_seconds(F&& body, dsp::Samples& out) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    out = body();
    auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun run{argc, argv, "Flow streaming throughput",
                      "streaming runtime",
                      "Zero-copy SPSC flowgraph vs the copy-based ring "
                      "engine on an NCO -> FIR -> decimate chain"};
  run.config("input_samples", static_cast<double>(kInputSamples));
  run.config("fir_taps", static_cast<double>(kFirTaps));
  run.config("reps", static_cast<double>(kReps));

  dsp::Samples copy_out, spsc_out, threaded_out;
  const double copy_s = best_seconds(run_copy_engine, copy_out);
  const double spsc_s =
      best_seconds([] { return run_spsc_engine(false); }, spsc_out);
  const double thr_s =
      best_seconds([] { return run_spsc_engine(true); }, threaded_out);

  const double msps = static_cast<double>(kInputSamples) / 1e6;
  const double copy_rate = msps / copy_s;
  const double spsc_rate = msps / spsc_s;
  const double thr_rate = msps / thr_s;
  const double speedup = copy_s / spsc_s;

  // Correctness before speed: same chain, same outputs.
  bool identical = spsc_out.size() == threaded_out.size();
  for (std::size_t i = 0; identical && i < spsc_out.size(); ++i)
    identical = std::memcmp(&spsc_out[i], &threaded_out[i],
                            sizeof(spsc_out[i])) == 0;
  double max_err = copy_out.size() == spsc_out.size() ? 0.0 : 1e300;
  for (std::size_t i = 0; i < copy_out.size() && max_err < 1e300; ++i)
    max_err = std::max<double>(max_err, std::abs(copy_out[i] - spsc_out[i]));

  run.series("throughput", "path", {"Msamples_per_s", "seconds"},
             {{0, copy_rate, copy_s},
              {1, spsc_rate, spsc_s},
              {2, thr_rate, thr_s}},
             3);
  std::cout << "  (path 0 = copy engine, 1 = spsc, 2 = spsc threaded)\n";

  run.scalar("copy_msamples_per_s", copy_rate);
  run.scalar("spsc_msamples_per_s", spsc_rate);
  run.scalar("threaded_msamples_per_s", thr_rate);
  run.scalar("speedup_spsc_vs_copy", speedup);
  run.scalar("speedup_threaded_vs_copy", copy_s / thr_s);
  run.scalar("speedup_best_vs_copy", copy_s / std::min(spsc_s, thr_s));
  run.scalar("deterministic_match", identical ? 1.0 : 0.0);
  // Both FIRs add the same rounded products in the same order on every
  // host, so the outputs are equal (the copy engine's +0 accumulator can
  // only flip the sign of a zero, which the difference does not see).
  run.scalar("copy_match_ok", max_err == 0.0 ? 1.0 : 0.0);
  run.scalar("sink_samples", static_cast<double>(spsc_out.size()));

  std::cout << "\nZero-copy speedup over the copy engine: "
            << TextTable::num(speedup, 2) << "x; threaded sink "
            << (identical ? "byte-identical to single-thread."
                          : "DIVERGED — determinism bug!")
            << " (copy-path max err " << max_err << ")\n";
  return identical && max_err == 0.0 ? 0 : 1;
}
