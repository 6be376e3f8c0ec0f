#include "phy/link_sim.hpp"

#include <bit>
#include <chrono>
#include <memory>
#include <string>

#include "exec/parallel_for.hpp"
#include "exec/seed.hpp"
#include "obs/metrics.hpp"

namespace tinysdr::phy {

namespace {

void fill_random(std::vector<std::uint8_t>& payload, std::size_t count,
                 Rng& rng) {
  payload.resize(count);
  for (auto& b : payload) b = rng.next_byte();
}

}  // namespace

void PhyTxInterferer::emit(std::span<const dsp::Complex> /*signal*/,
                           dsp::Samples& out, Rng& rng) const {
  std::vector<std::uint8_t> payload;
  fill_random(payload, std::min(payload_bytes_, tx_->max_payload()), rng);
  tx_->modulate(payload, out);
}

LinkSimulator::LinkSimulator(const PhyTx& tx, const PhyRx& rx, TrialPlan plan)
    : tx_(&tx), rx_(&rx), plan_(std::move(plan)) {}

void LinkSimulator::set_interferer(const PhyTx& tx) {
  owned_.push_back(
      std::make_unique<PhyTxInterferer>(tx, plan_.payload_bytes));
  add_interferer(*owned_.back());
}

void LinkSimulator::add_interferer(const Interferer& source,
                                   std::optional<Dbm> power) {
  interferers_.push_back({&source, power});
}

void LinkSimulator::add_impairment(const impair::Impairment& block,
                                   impair::Stage stage) {
  impairments_.push_back({&block, stage});
}

std::uint64_t LinkSimulator::point_seed(std::uint64_t base, double rssi_dbm) {
  return exec::stream_seed(
      base, exec::splitmix64(std::bit_cast<std::uint64_t>(rssi_dbm)));
}

PointResult LinkSimulator::run_point(const SweepPoint& point) const {
  PointResult acc;
  acc.rssi_dbm = point.rssi.value();

  obs::Registry* registry = obs::metrics();
  const std::string prefix = "phy." + std::string(protocol_name(
                                          rx_->protocol()));

  const Hertz rate = plan_.channel_rate.value_or(rx_->sample_rate());
  const std::uint64_t pseed = point_seed(plan_.base_seed, acc.rssi_dbm);

  // Buffers live across the trial loop; modulate() appends, so the only
  // steady-state cost is the waveform writes themselves.
  dsp::Samples wave, interferer_wave;
  std::vector<std::uint8_t> payload;

  bool has_tx_impair = false;
  bool has_rx_impair = false;
  for (const auto& slot : impairments_) {
    if (slot.stage == impair::Stage::kTx) has_tx_impair = true;
    if (slot.stage == impair::Stage::kRx) has_rx_impair = true;
  }
  std::uint64_t tx_impair_samples = 0;
  std::uint64_t rx_impair_samples = 0;

  // Resolved once per point; a zero-trial point creates no histogram.
  obs::Histogram* demod_us =
      registry != nullptr && plan_.trials > 0
          ? &registry->histogram(prefix + ".demod_us",
                                 obs::HistogramSpec::log_scale(0.01, 1e7, 72))
          : nullptr;

  for (std::size_t t = 0; t < plan_.trials; ++t) {
    const std::uint64_t tseed = exec::stream_seed(pseed, t);

    if (plan_.fixed_payload) {
      payload = *plan_.fixed_payload;
    } else {
      Rng payload_rng{tseed, kPayloadStream};
      fill_random(payload,
                  std::min(plan_.payload_bytes, tx_->max_payload()),
                  payload_rng);
    }

    wave.clear();
    wave.insert(wave.end(), plan_.pad_samples, dsp::Complex{0.0f, 0.0f});
    tx_->modulate(payload, wave);
    wave.insert(wave.end(), plan_.pad_samples, dsp::Complex{0.0f, 0.0f});

    const dsp::Samples* signal = &wave;
    dsp::Samples combined;
    for (std::size_t k = 0; k < interferers_.size(); ++k) {
      const InterfererSlot& slot = interferers_[k];
      std::optional<Dbm> power =
          slot.power ? slot.power : point.interferer_rssi;
      if (!power) continue;
      Rng interferer_rng{tseed, k == 0 ? kInterfererStream
                                       : kExtraInterfererBase + k};
      interferer_wave.clear();
      slot.source->emit(wave, interferer_wave, interferer_rng);
      if (interferer_wave.empty()) continue;
      combined = channel::superpose(*signal, interferer_wave,
                                    power->value() - point.rssi.value());
      signal = &combined;
    }

    // TX-stage impairments distort the combined waveform on a copy, so
    // the clean `wave` stays available to reactive interferer models and
    // an empty chain leaves this path untouched.
    if (has_tx_impair) {
      if (signal != &combined) {
        combined.assign(signal->begin(), signal->end());
        signal = &combined;
      }
      impair::apply_stage(impairments_, impair::Stage::kTx, combined, tseed,
                          kImpairStreamBase);
      tx_impair_samples += combined.size();
    }

    // Noise goes onto the transmitted block where it lives: interferers
    // have already been emitted from the clean `wave`, and add_noise draws
    // in the same order as apply().
    dsp::Samples& noisy = signal == &combined ? combined : wave;
    channel::AwgnChannel channel{rate, plan_.noise_figure_db,
                                 Rng{tseed, kChannelStream}};
    channel.add_noise(noisy, channel.snr_db(point.rssi));

    if (has_rx_impair) {
      impair::apply_stage(impairments_, impair::Stage::kRx, noisy, tseed,
                          kImpairStreamBase);
      rx_impair_samples += noisy.size();
    }

    FrameResult r;
    if (demod_us != nullptr) {
      auto start = std::chrono::steady_clock::now();
      r = rx_->demodulate(noisy, payload);
      auto end = std::chrono::steady_clock::now();
      demod_us->observe(
          std::chrono::duration<double, std::micro>(end - start).count());
    } else {
      r = rx_->demodulate(noisy, payload);
    }

    acc.frames += 1;
    acc.frame_errors += r.frame_ok ? 0 : 1;
    acc.bits += r.bits;
    acc.bit_errors += r.bit_errors;
    acc.symbols += r.symbols;
    acc.symbol_errors += r.symbol_errors;
  }

  if (registry != nullptr) {
    registry->counter(prefix + ".trials")
        .add(static_cast<double>(acc.frames));
    registry->counter(prefix + ".frame_errors")
        .add(static_cast<double>(acc.frame_errors));
    registry->counter(prefix + ".bit_errors")
        .add(static_cast<double>(acc.bit_errors));
    registry->counter(prefix + ".symbol_errors")
        .add(static_cast<double>(acc.symbol_errors));
    // One add per chain slot, in chain order — the streaming engine adds
    // the same totals in the same order, keeping journaled metrics
    // byte-identical between the two paths.
    for (const auto& slot : impairments_) {
      const std::uint64_t total = slot.stage == impair::Stage::kTx
                                      ? tx_impair_samples
                                      : rx_impair_samples;
      registry
          ->counter("impair." + std::string(impair::stage_name(slot.stage)) +
                    "." + std::string(slot.impairment->name()) + ".samples")
          .add(static_cast<double>(total));
    }
  }
  return acc;
}

std::vector<PointResult> LinkSimulator::sweep(
    std::span<const SweepPoint> points,
    const exec::ExecPolicy& policy) const {
  std::vector<PointResult> results;
  (void)sweep(points, results, policy);
  return results;
}

exec::RunStatus LinkSimulator::sweep(std::span<const SweepPoint> points,
                                     std::vector<PointResult>& results,
                                     const exec::ExecPolicy& policy) const {
  results.assign(points.size(), PointResult{});
  obs::Registry* parent = obs::metrics();
  std::vector<std::unique_ptr<obs::Registry>> shards(points.size());

  exec::ExecPolicy p = policy;
  if (p.grain == 0) p.grain = 1;  // a point's trial loop is a heavy item

  exec::RunStatus status =
      exec::parallel_for(points.size(), p, [&](std::size_t i, std::size_t) {
        std::optional<obs::MetricsSession> session;
        if (parent != nullptr) {
          shards[i] = std::make_unique<obs::Registry>();
          shards[i]->enable_journal();
          session.emplace(*shards[i]);
        }
        results[i] = run_point(points[i]);
      });

  // Points skipped by cancellation/deadline have no shard; completed ones
  // merge in index order exactly as a full run would.
  if (parent != nullptr)
    for (const auto& shard : shards)
      if (shard != nullptr) parent->merge_from(*shard);
  return status;
}

std::vector<PointResult> LinkSimulator::sweep_rssi(
    std::span<const double> rssi_dbm, const exec::ExecPolicy& policy) const {
  std::vector<SweepPoint> points;
  points.reserve(rssi_dbm.size());
  for (double rssi : rssi_dbm) points.push_back({Dbm{rssi}, std::nullopt});
  return sweep(points, policy);
}

}  // namespace tinysdr::phy
