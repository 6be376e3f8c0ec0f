#include "phy/link_sim.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>

#include "exec/parallel_for.hpp"
#include "exec/seed.hpp"
#include "obs/metrics.hpp"
#include "obs/shards.hpp"

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

void LinkSimulator::transmit(const SweepPoint& point, std::uint64_t trial_seed,
                             TrialBuffers& buf) const {
  if (plan_.fixed_payload) {
    buf.payload = *plan_.fixed_payload;
  } else {
    Rng payload_rng{trial_seed, kPayloadStream};
    fill_random(buf.payload, std::min(plan_.payload_bytes, tx_->max_payload()),
                payload_rng);
  }

  // modulate() appends, so the only steady-state cost is the writes.
  buf.wave.clear();
  buf.wave.insert(buf.wave.end(), plan_.pad_samples, dsp::Complex{0.0f, 0.0f});
  tx_->modulate(buf.payload, buf.wave);
  buf.wave.insert(buf.wave.end(), plan_.pad_samples, dsp::Complex{0.0f, 0.0f});

  buf.emissions.resize(interferers_.size());
  for (std::size_t k = 0; k < interferers_.size(); ++k) {
    buf.emissions[k].clear();
    if (!interferers_[k].power_at(point)) continue;
    Rng rng{trial_seed, k == 0 ? kInterfererStream : kExtraInterfererBase + k};
    interferers_[k].source->emit(buf.wave, buf.emissions[k], rng);
  }
  for (std::size_t k = 0; k < interferers_.size(); ++k)
    if (!buf.emissions[k].empty())
      channel::superpose(
          buf.wave, buf.emissions[k],
          interferers_[k].power_at(point)->value() - point.rssi.value());
  impair::apply_stage(impairments_, impair::Stage::kTx, buf.wave, trial_seed,
                      kImpairStreamBase);
}

FrameResult LinkSimulator::receive(std::span<dsp::Complex> capture,
                                   std::span<const std::uint8_t> payload,
                                   std::uint64_t trial_seed) const {
  impair::apply_stage(impairments_, impair::Stage::kRx, capture, trial_seed,
                      kImpairStreamBase);
  return rx_->demodulate(capture, payload);
}

channel::AwgnChannel LinkSimulator::channel(std::uint64_t trial_seed) const {
  // The noise bandwidth is the RX sample rate.
  return {rx_->sample_rate(), plan_.noise_figure_db,
          Rng{trial_seed, kChannelStream}};
}

void LinkSimulator::count_impaired(std::uint64_t samples) const {
  obs::Registry* registry = obs::metrics();
  if (registry == nullptr) return;
  for (const auto& slot : impairments_)
    registry
        ->counter("impair." + std::string(impair::stage_name(slot.stage)) +
                  "." + std::string(slot.impairment->name()) + ".samples")
        .add(static_cast<double>(samples));
}

PointResult LinkSimulator::run_point(const SweepPoint& point) const {
  PointResult acc;
  acc.rssi_dbm = point.rssi.value();

  obs::Registry* registry = obs::metrics();
  const std::string prefix = "phy." + std::string(protocol_name(
                                          rx_->protocol()));
  const std::uint64_t pseed = point_seed(plan_.base_seed, acc.rssi_dbm);

  // Resolved once per point; a zero-trial point creates no histogram.
  obs::Histogram* demod_us =
      registry != nullptr && plan_.trials > 0
          ? &registry->histogram(prefix + ".demod_us",
                                 obs::HistogramSpec::log_scale(0.01, 1e7, 72))
          : nullptr;

  TrialBuffers buf;
  std::uint64_t samples = 0;
  for (std::size_t t = 0; t < plan_.trials; ++t) {
    const std::uint64_t tseed = exec::stream_seed(pseed, t);
    transmit(point, tseed, buf);
    channel::AwgnChannel noise = channel(tseed);
    noise.add_noise(buf.wave, noise.snr_db(point.rssi));
    samples += buf.wave.size();

    if (demod_us != nullptr) {
      auto start = std::chrono::steady_clock::now();
      acc.add(receive(buf.wave, buf.payload, tseed));
      auto end = std::chrono::steady_clock::now();
      demod_us->observe(
          std::chrono::duration<double, std::micro>(end - start).count());
    } else {
      acc.add(receive(buf.wave, buf.payload, tseed));
    }
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
  }
  count_impaired(samples);
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
  obs::ItemShards shards{points.size()};

  exec::RunStatus status =
      exec::parallel_for(points.size(), policy, [&](std::size_t i) {
        auto scope = shards.enter(i);
        results[i] = run_point(points[i]);
      });
  shards.fold_all();
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
