#include "flow/link_stream.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "exec/seed.hpp"
#include "obs/metrics.hpp"

namespace tinysdr::flow {

void FrameSchedule::push(FrameEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(entry));
}

const FrameEntry* FrameSchedule::at(std::size_t cursor) const {
  std::lock_guard<std::mutex> lock(mu_);
  // deque growth never relocates existing elements, so the pointer stays
  // valid after the lock drops; entries are immutable once pushed.
  return cursor < entries_.size() ? &entries_[cursor] : nullptr;
}

std::size_t FrameSchedule::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

FrameStreamSource::FrameStreamSource(
    const phy::PhyTx& tx, const StreamPlan& plan, const phy::SweepPoint& point,
    std::vector<std::pair<const phy::Interferer*, std::optional<Dbm>>> slots,
    FrameSchedule* schedule)
    : Block("frame_stream:" +
            std::string(phy::protocol_name(tx.protocol()))),
      tx_(&tx),
      plan_(&plan),
      point_(point),
      slots_(std::move(slots)),
      schedule_(schedule),
      point_seed_(phy::LinkSimulator::point_seed(plan.trial.base_seed,
                                                 point.rssi.value())) {}

void FrameStreamSource::stage_frame(std::uint64_t start) {
  // Identical derivations to LinkSimulator::run_point's trial loop: same
  // trial seed, same payload/interferer RNG streams, same padded layout.
  const std::uint64_t tseed = exec::stream_seed(point_seed_, frame_idx_);
  FrameEntry entry;
  entry.start = start;
  entry.trial_seed = tseed;

  if (plan_->trial.fixed_payload) {
    entry.payload = *plan_->trial.fixed_payload;
  } else {
    Rng payload_rng{tseed, phy::LinkSimulator::kPayloadStream};
    entry.payload.resize(
        std::min(plan_->trial.payload_bytes, tx_->max_payload()));
    for (auto& b : entry.payload) b = payload_rng.next_byte();
  }

  staged_.clear();
  staged_.insert(staged_.end(), plan_->trial.pad_samples,
                 dsp::Complex{0.0f, 0.0f});
  tx_->modulate(entry.payload, staged_);
  staged_.insert(staged_.end(), plan_->trial.pad_samples,
                 dsp::Complex{0.0f, 0.0f});
  entry.length = staged_.size();

  for (std::size_t k = 0; k < slots_.size(); ++k) {
    std::optional<Dbm> power =
        slots_[k].second ? slots_[k].second : point_.interferer_rssi;
    if (!power) continue;
    Rng interferer_rng{
        tseed, k == 0 ? phy::LinkSimulator::kInterfererStream
                      : phy::LinkSimulator::kExtraInterfererBase + k};
    dsp::Samples wave;
    slots_[k].first->emit(staged_, wave, interferer_rng);
    if (wave.empty()) continue;
    entry.waves.push_back(std::move(wave));
    entry.rel_dbs.push_back(power->value() - point_.rssi.value());
  }
  if (!entry.waves.empty()) entry.clean = staged_;

  // Publish before any region sample is committed: consumers that can see
  // a position are guaranteed to see its entry.
  schedule_->push(std::move(entry));
}

WorkResult FrameStreamSource::work(const ReadView&, WriteView& out) {
  const std::size_t trials = plan_->trial.trials;
  std::size_t produced = 0;
  while (produced < out.size()) {
    if (in_gap_) {
      std::size_t n = std::min(gap_left_, out.size() - produced);
      out.fill(produced, n, dsp::Complex{0.0f, 0.0f});
      produced += n;
      gap_left_ -= n;
      if (gap_left_ > 0) break;  // output full mid-gap
      in_gap_ = false;
    } else if (frame_idx_ >= trials) {
      break;
    } else {
      if (region_pos_ == 0 && staged_.empty())
        stage_frame(out.stream_pos() + produced);
      std::size_t n =
          std::min(staged_.size() - region_pos_, out.size() - produced);
      out.write(produced, std::span<const dsp::Complex>{
                              staged_.data() + region_pos_, n});
      region_pos_ += n;
      produced += n;
      if (region_pos_ == staged_.size()) {
        staged_.clear();
        region_pos_ = 0;
        ++frame_idx_;
        in_gap_ = true;
        gap_left_ = plan_->gap_samples;
      }
    }
  }
  return {0, produced};
}

bool FrameStreamSource::finished() const {
  return frame_idx_ >= plan_->trial.trials && gap_left_ == 0;
}

WorkResult InterfererMixBlock::work(const ReadView& in, WriteView& out) {
  const std::size_t n = std::min(in.size(), out.size());
  const std::uint64_t base = in.stream_pos();
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t pos = base + i;
    const FrameEntry* e = schedule_->at(cursor_);
    while (e != nullptr && pos >= e->start + e->length) {
      ++cursor_;
      mixed_.clear();
      e = schedule_->at(cursor_);
    }
    std::size_t run;
    if (e == nullptr || pos < e->start || e->waves.empty()) {
      // Gap silence, or a region with no active interferer: passthrough.
      std::uint64_t limit = e == nullptr ? std::uint64_t(n - i)
                            : pos < e->start
                                ? e->start - pos
                                : e->start + e->length - pos;
      run = static_cast<std::size_t>(
          std::min<std::uint64_t>(n - i, limit));
      copy_samples(in, i, out, i, run);
    } else {
      if (mixed_.empty()) {
        // Replays run_point's superposition loop verbatim so every float
        // lands in the same place.
        const dsp::Samples* signal = &e->clean;
        dsp::Samples combined;
        for (std::size_t k = 0; k < e->waves.size(); ++k) {
          combined =
              channel::superpose(*signal, e->waves[k], e->rel_dbs[k]);
          signal = &combined;
        }
        mixed_ = std::move(combined);
      }
      run = static_cast<std::size_t>(std::min<std::uint64_t>(
          n - i, e->start + e->length - pos));
      const std::size_t off = static_cast<std::size_t>(pos - e->start);
      out.write(i, std::span<const dsp::Complex>{mixed_.data() + off, run});
    }
    i += run;
  }
  return {n, n};
}

AwgnStreamBlock::AwgnStreamBlock(const FrameSchedule* schedule,
                                 Hertz sample_rate, double noise_figure_db,
                                 Dbm rssi)
    : Block("awgn_channel"),
      schedule_(schedule),
      sample_rate_(sample_rate),
      noise_figure_db_(noise_figure_db),
      snr_db_(rssi - channel::noise_floor(sample_rate, noise_figure_db)) {}

WorkResult AwgnStreamBlock::work(const ReadView& in, WriteView& out) {
  const std::size_t n = std::min(in.size(), out.size());
  const std::uint64_t base = in.stream_pos();
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t pos = base + i;
    const FrameEntry* e = schedule_->at(cursor_);
    while (e != nullptr && pos >= e->start + e->length) {
      ++cursor_;
      channel_.reset();
      e = schedule_->at(cursor_);
    }
    std::size_t run;
    if (e == nullptr || pos < e->start) {
      // Inter-frame gaps are noiseless, exactly like the per-trial engine
      // (each trial draws its own channel realisation; nothing between).
      std::uint64_t limit =
          e == nullptr ? std::uint64_t(n - i) : e->start - pos;
      run = static_cast<std::size_t>(
          std::min<std::uint64_t>(n - i, limit));
      copy_samples(in, i, out, i, run);
    } else {
      if (!channel_)
        channel_.emplace(
            sample_rate_, noise_figure_db_,
            Rng{e->trial_seed, phy::LinkSimulator::kChannelStream});
      run = static_cast<std::size_t>(std::min<std::uint64_t>(
          n - i, e->start + e->length - pos));
      copy_samples(in, i, out, i, run);
      std::size_t done = 0;
      while (done < run) {
        auto seg = out.chunk(i + done, run - done);
        channel_->add_noise(seg, snr_db_);
        done += seg.size();
      }
    }
    i += run;
  }
  return {n, n};
}

ImpairStreamBlock::ImpairStreamBlock(const FrameSchedule* schedule,
                                     const impair::Chain& chain,
                                     impair::Stage stage)
    : Block("impair_" + std::string(impair::stage_name(stage))),
      schedule_(schedule),
      stage_(stage) {
  for (std::size_t k = 0; k < chain.size(); ++k)
    if (chain[k].stage == stage) slots_.push_back({chain[k].impairment, k});
}

WorkResult ImpairStreamBlock::work(const ReadView& in, WriteView& out) {
  const std::size_t n = std::min(in.size(), out.size());
  const std::uint64_t base = in.stream_pos();
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t pos = base + i;
    const FrameEntry* e = schedule_->at(cursor_);
    while (e != nullptr && pos >= e->start + e->length) {
      ++cursor_;
      region_active_ = false;
      e = schedule_->at(cursor_);
    }
    std::size_t run;
    if (e == nullptr || pos < e->start || slots_.empty()) {
      // Gap silence (or a stage with no slots): passthrough, like the
      // batch engine which never touches inter-trial silence.
      std::uint64_t limit =
          e == nullptr ? std::uint64_t(n - i) : e->start - pos;
      run = static_cast<std::size_t>(std::min<std::uint64_t>(n - i, limit));
      copy_samples(in, i, out, i, run);
    } else {
      if (!region_active_) {
        // Fresh per-slot state at region entry: same seeds run_point uses
        // (trial seed, kImpairStreamBase + global chain index).
        states_.clear();
        for (const Slot& s : slots_)
          states_.push_back(impair::ImpairState{
              Rng{e->trial_seed,
                  phy::LinkSimulator::kImpairStreamBase + s.chain_index}});
        region_active_ = true;
      }
      run = static_cast<std::size_t>(
          std::min<std::uint64_t>(n - i, e->start + e->length - pos));
      copy_samples(in, i, out, i, run);
      std::size_t done = 0;
      while (done < run) {
        auto seg = out.chunk(i + done, run - done);
        // Slots compose in chain order per segment; each block's
        // chunk-independence makes this equal to whole-region application.
        for (std::size_t k = 0; k < slots_.size(); ++k)
          slots_[k].impairment->apply(seg, states_[k]);
        done += seg.size();
      }
      samples_processed_ += run;
    }
    i += run;
  }
  return {n, n};
}

WorkResult FrameSlicerSink::work(const ReadView& in, WriteView&) {
  const std::size_t n = in.size();
  const std::uint64_t base = in.stream_pos();
  std::size_t i = 0;
  // One schedule lookup per run of samples: a gap is skipped in one step
  // and a region's samples are appended one contiguous chunk at a time.
  // Samples past the last published entry are gap: an entry is published
  // before any of its region is committed.
  while (const FrameEntry* e = schedule_->at(cursor_)) {
    if (region_.size() == e->length) {  // zero-length regions need no samples
      phy::FrameResult r = rx_->demodulate(region_, e->payload);
      result_.frames += 1;
      result_.frame_errors += r.frame_ok ? 0 : 1;
      result_.bits += r.bits;
      result_.bit_errors += r.bit_errors;
      result_.symbols += r.symbols;
      result_.symbol_errors += r.symbol_errors;
      ++frames_sliced_;
      region_.clear();
      ++cursor_;
      continue;
    }
    if (i == n) break;
    const std::uint64_t pos = base + i;
    if (pos < e->start) {
      i += static_cast<std::size_t>(
          std::min<std::uint64_t>(n - i, e->start - pos));
      continue;
    }
    const std::size_t run = std::min(n - i, e->length - region_.size());
    for (std::size_t done = 0; done < run;) {
      auto seg = in.chunk(i + done, run - done);
      region_.insert(region_.end(), seg.begin(), seg.end());
      done += seg.size();
    }
    i += run;
  }
  return {n, 0};
}

StreamingLink::StreamingLink(const phy::PhyTx& tx, const phy::PhyRx& rx,
                             StreamPlan plan)
    : tx_(&tx), rx_(&rx), plan_(std::move(plan)) {}

void StreamingLink::add_interferer(const phy::Interferer& source,
                                   std::optional<Dbm> power) {
  slots_.emplace_back(&source, power);
}

void StreamingLink::add_impairment(const impair::Impairment& block,
                                   impair::Stage stage) {
  impairments_.push_back({&block, stage});
}

StreamResult StreamingLink::run(const phy::SweepPoint& point,
                                bool threaded) const {
  FrameSchedule schedule;
  FlowGraph graph;
  const Hertz rate = plan_.trial.channel_rate.value_or(rx_->sample_rate());

  bool has_tx_impair = false;
  bool has_rx_impair = false;
  for (const auto& slot : impairments_) {
    if (slot.stage == impair::Stage::kTx) has_tx_impair = true;
    if (slot.stage == impair::Stage::kRx) has_rx_impair = true;
  }

  auto* src = graph.add_block<FrameStreamSource>(*tx_, plan_, point, slots_,
                                                 &schedule);
  auto* mix = graph.add_block<InterfererMixBlock>(&schedule);
  ImpairStreamBlock* tx_imp =
      has_tx_impair ? graph.add_block<ImpairStreamBlock>(
                          &schedule, impairments_, impair::Stage::kTx)
                    : nullptr;
  auto* awgn = graph.add_block<AwgnStreamBlock>(
      &schedule, rate, plan_.trial.noise_figure_db, point.rssi);
  ImpairStreamBlock* rx_imp =
      has_rx_impair ? graph.add_block<ImpairStreamBlock>(
                          &schedule, impairments_, impair::Stage::kRx)
                    : nullptr;
  auto* sink = graph.add_block<FrameSlicerSink>(*rx_, &schedule);
  graph.connect(src, mix, plan_.ring_capacity);
  if (tx_imp != nullptr) {
    graph.connect(mix, tx_imp, plan_.ring_capacity);
    graph.connect(tx_imp, awgn, plan_.ring_capacity);
  } else {
    graph.connect(mix, awgn, plan_.ring_capacity);
  }
  if (rx_imp != nullptr) {
    graph.connect(awgn, rx_imp, plan_.ring_capacity);
    graph.connect(rx_imp, sink, plan_.ring_capacity);
  } else {
    graph.connect(awgn, sink, plan_.ring_capacity);
  }

  StreamResult result;
  result.report = threaded ? graph.run_threaded() : graph.run();
  result.point = sink->result();
  result.point.rssi_dbm = point.rssi.value();

  if (auto* m = obs::metrics()) {
    m->counter("flow.stream.frames")
        .add(static_cast<double>(result.point.frames));
    m->counter("flow.stream.samples")
        .add(static_cast<double>(result.report.samples_streamed));
    // Chain-order totals added once per run, like run_point — journaled
    // metrics stay identical across ring sizes and schedulers.
    for (const auto& slot : impairments_) {
      const ImpairStreamBlock* stage_block =
          slot.stage == impair::Stage::kTx ? tx_imp : rx_imp;
      m->counter("impair." + std::string(impair::stage_name(slot.stage)) +
                 "." + std::string(slot.impairment->name()) + ".samples")
          .add(stage_block == nullptr
                   ? 0.0
                   : static_cast<double>(stage_block->samples_processed()));
    }
  }
  return result;
}

}  // namespace tinysdr::flow
