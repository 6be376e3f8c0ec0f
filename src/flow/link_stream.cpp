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
  peak_live_ = std::max(peak_live_, entries_.size());
}

const FrameEntry* FrameSchedule::at(std::size_t cursor) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Pushing to or popping from either end of a deque never relocates the
  // other elements, so the pointer stays valid after the lock drops until
  // its entry is retired; entries are immutable once pushed.
  const std::size_t i = cursor - retired_;
  return i < entries_.size() ? &entries_[i] : nullptr;
}

void FrameSchedule::pass(Reader reader, std::size_t cursor) {
  std::lock_guard<std::mutex> lock(mu_);
  passed_[static_cast<std::size_t>(reader)] = cursor;
  const std::size_t done = std::min(passed_[0], passed_[1]);
  for (; retired_ < done && !entries_.empty(); ++retired_)
    entries_.pop_front();
}

std::size_t FrameSchedule::peak_live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_live_;
}

FrameStreamSource::FrameStreamSource(const phy::LinkSimulator& sim,
                                     const StreamPlan& plan,
                                     const phy::SweepPoint& point,
                                     FrameSchedule* schedule)
    : Block("frame_stream:" +
            std::string(phy::protocol_name(sim.tx().protocol()))),
      sim_(&sim),
      plan_(&plan),
      point_(point),
      schedule_(schedule),
      point_seed_(phy::LinkSimulator::point_seed(plan.trial.base_seed,
                                                 point.rssi.value())) {}

void FrameStreamSource::stage_frame(std::uint64_t start) {
  // The same trial seed run_point derives for this trial index.
  const std::uint64_t tseed = exec::stream_seed(point_seed_, frame_idx_);
  sim_->transmit(point_, tseed, buf_);
  // Publish before any region sample is committed: consumers that can see
  // a position are guaranteed to see its entry.
  schedule_->push({start, buf_.wave.size(), tseed, buf_.payload});
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
      if (region_pos_ == 0 && buf_.wave.empty())
        stage_frame(out.stream_pos() + produced);
      std::size_t n =
          std::min(buf_.wave.size() - region_pos_, out.size() - produced);
      out.write(produced, std::span<const dsp::Complex>{
                              buf_.wave.data() + region_pos_, n});
      region_pos_ += n;
      produced += n;
      if (region_pos_ == buf_.wave.size()) {
        buf_.wave.clear();
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

AwgnStreamBlock::AwgnStreamBlock(FrameSchedule* schedule,
                                 const phy::LinkSimulator& sim, Dbm rssi)
    : Block("awgn_channel"),
      schedule_(schedule),
      sim_(&sim),
      // The SNR depends on the noise bandwidth and figure, not the seed.
      snr_db_(sim.channel(0).snr_db(rssi)) {}

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
      if (!channel_) channel_.emplace(sim_->channel(e->trial_seed));
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
  schedule_->pass(FrameSchedule::Reader::kChannel, cursor_);
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
      result_.add(sim_->receive(region_, e->payload, e->trial_seed));
      samples_sliced_ += region_.size();
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
  schedule_->pass(FrameSchedule::Reader::kSlicer, cursor_);
  return {n, 0};
}

StreamingLink::StreamingLink(const phy::PhyTx& tx, const phy::PhyRx& rx,
                             StreamPlan plan)
    : plan_(std::move(plan)), sim_(tx, rx, plan_.trial) {}

StreamResult StreamingLink::run(const phy::SweepPoint& point,
                                bool threaded) const {
  FrameSchedule schedule;
  FlowGraph graph;
  auto* src =
      graph.add_block<FrameStreamSource>(sim_, plan_, point, &schedule);
  auto* awgn = graph.add_block<AwgnStreamBlock>(&schedule, sim_, point.rssi);
  auto* sink = graph.add_block<FrameSlicerSink>(sim_, &schedule);
  graph.connect(src, awgn, plan_.ring_capacity);
  graph.connect(awgn, sink, plan_.ring_capacity);

  StreamResult result;
  result.report = threaded ? graph.run_threaded() : graph.run();
  result.point = sink->result();
  result.point.rssi_dbm = point.rssi.value();
  result.frames_live_peak = schedule.peak_live();

  if (auto* m = obs::metrics()) {
    m->counter("flow.stream.frames")
        .add(static_cast<double>(result.point.frames));
    m->counter("flow.stream.samples")
        .add(static_cast<double>(result.report.samples_streamed));
  }
  sim_.count_impaired(sink->samples_sliced());
  return result;
}

}  // namespace tinysdr::flow
