#include "phy/calibrated_rx.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "dsp/cfo.hpp"
#include "impair/correct.hpp"
#include "obs/metrics.hpp"

namespace tinysdr::phy {

CalibratedRx::CalibratedRx(const PhyRx& inner, RxCalibration calibration)
    : inner_(&inner), calibration_(calibration) {}

CalibratedRx::CalibratedRx(std::unique_ptr<PhyRx> inner,
                           RxCalibration calibration)
    : inner_(inner.get()),
      owned_(std::move(inner)),
      calibration_(calibration) {}

FrameResult CalibratedRx::demodulate(
    std::span<const dsp::Complex> iq,
    std::span<const std::uint8_t> reference) const {
  // Local copy: demodulate() borrows a const capture and must stay
  // thread-safe, so all correction happens on stack-owned storage.
  std::vector<dsp::Complex> work(iq.begin(), iq.end());

  impair::remove_dc(work);
  impair::correct_iq_imbalance(work);

  obs::Registry* registry = obs::metrics();
  if (calibration_.cfo_correct) {
    const dsp::CfoEstimatorConfig cfg{calibration_.cfo_lag,
                                      calibration_.cfo_bias,
                                      calibration_.cfo_power};
    const std::size_t window =
        calibration_.cfo_window == 0
            ? work.size()
            : std::min(calibration_.cfo_window, work.size());
    const std::span<const dsp::Complex> head{work.data(), window};
    const double est = dsp::estimate_cfo(head, cfg);
    dsp::mix_cfo(work, -est);
    if (registry != nullptr) {
      const double rate = inner_->sample_rate().value();
      const auto spec = obs::HistogramSpec::log_scale(1e-3, 1e6, 72);
      registry->histogram("impair.cfo_estimate_hz", spec)
          .observe(std::fabs(est) * rate);
      registry->histogram("impair.cfo_residual_hz", spec)
          .observe(std::fabs(dsp::estimate_cfo(head, cfg)) * rate);
    }
  }
  if (registry != nullptr) registry->counter("impair.cal.frames").add(1.0);

  return inner_->demodulate(work, reference);
}

double measure_cfo_bias(const PhyTx& tx, const RxCalibration& cal,
                        std::size_t pad_samples) {
  // A short fixed pattern with bit variety, so the reference waveform
  // exercises the modulation the way real payloads do.
  static constexpr std::uint8_t kPattern[] = {0xA5, 0x3C, 0x0F, 0x96,
                                              0x5A, 0xC3, 0xF0, 0x69};
  std::size_t n = sizeof(kPattern);
  if (tx.max_payload() < n) n = tx.max_payload();
  dsp::Samples wave(pad_samples, dsp::Complex{0.0F, 0.0F});
  tx.modulate(std::span(kPattern, n), wave);
  wave.resize(wave.size() + pad_samples, dsp::Complex{0.0F, 0.0F});
  const std::size_t window =
      cal.cfo_window == 0 ? wave.size() : std::min(cal.cfo_window, wave.size());
  return dsp::estimate_cfo(
      std::span<const dsp::Complex>{wave.data(), window},
      {.lag = cal.cfo_lag, .bias_cycles_per_sample = 0.0,
       .power = cal.cfo_power});
}

RxCalibration default_calibration(const RegisteredPhy& entry) {
  RxCalibration cal;
  cal.cfo_lag = entry.cfo_lag;
  cal.cfo_power = entry.cfo_power;
  cal.cfo_window = entry.cfo_window;
  cal.cfo_bias = measure_cfo_bias(*entry.make_tx(), cal, entry.pad_samples);
  return cal;
}

std::unique_ptr<PhyRx> make_calibrated_rx(const RegisteredPhy& entry) {
  return make_calibrated_rx(entry, default_calibration(entry));
}

std::unique_ptr<PhyRx> make_calibrated_rx(const RegisteredPhy& entry,
                                          RxCalibration calibration) {
  return std::make_unique<CalibratedRx>(entry.make_rx(), calibration);
}

}  // namespace tinysdr::phy
