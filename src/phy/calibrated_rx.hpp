// Opt-in RX calibration: DC notch, blind IQ-imbalance correction and
// preamble/autocorrelation CFO correction in front of any PhyRx.
//
// CalibratedRx is a PhyRx decorator — it copies the capture, runs the
// correction stages (DC -> IQ -> CFO when enabled, the order the front-end
// defects stack in), then hands the cleaned capture to the wrapped
// receiver. Because it *is* a PhyRx, every trial engine (LinkSimulator
// sweeps, StreamingLink, campaigns) gains calibration by swapping the
// receiver object; none of the five PHY adapters change.
//
// The CFO estimator is dsp::estimate_cfo with a per-PHY lag
// (RegisteredPhy::cfo_lag: samples-per-symbol for LoRa's repeated-preamble
// correlation, 1 for the oversampled FSK/PSK family) and a bias measured
// once on a clean reference waveform — so modulations with an inherent
// mean rotation (NB-IoT pi/2-BPSK) read zero at zero offset.
//
// Telemetry: impair.cal.frames counts calibrated demods;
// impair.cfo_estimate_hz / impair.cfo_residual_hz histograms record the
// correction applied and what the estimator still sees afterwards.
#pragma once

#include <memory>

#include "phy/phy.hpp"
#include "phy/registry.hpp"

namespace tinysdr::phy {

/// Whether the CFO stage runs, plus the CFO estimator's per-PHY knobs. The
/// DC notch and the IQ correction always run.
struct RxCalibration {
  bool cfo_correct = true;
  /// Autocorrelation lag in samples (see dsp::CfoEstimatorConfig).
  std::size_t cfo_lag = 1;
  /// Estimator nonlinearity order (2 strips BPSK-family data flips).
  std::size_t cfo_power = 1;
  /// Samples of the capture the estimator reads (0 = whole capture);
  /// window a data-dependent PHY to its fixed preamble.
  std::size_t cfo_window = 0;
  /// Zero-CFO estimator reading of the target waveform (cycles/sample),
  /// subtracted from every raw estimate. Measure with measure_cfo_bias().
  double cfo_bias = 0.0;
};

class CalibratedRx final : public PhyRx {
 public:
  /// Borrows `inner`; it must outlive this object.
  CalibratedRx(const PhyRx& inner, RxCalibration calibration);
  /// Owns `inner` (the make_calibrated_rx() path).
  CalibratedRx(std::unique_ptr<PhyRx> inner, RxCalibration calibration);

  [[nodiscard]] Protocol protocol() const override {
    return inner_->protocol();
  }
  [[nodiscard]] Hertz sample_rate() const override {
    return inner_->sample_rate();
  }
  [[nodiscard]] const RxCalibration& calibration() const {
    return calibration_;
  }

  [[nodiscard]] FrameResult demodulate(
      std::span<const dsp::Complex> iq,
      std::span<const std::uint8_t> reference) const override;

 private:
  const PhyRx* inner_;
  std::unique_ptr<PhyRx> owned_;
  RxCalibration calibration_;
};

/// The CFO estimator's reading on a clean reference waveform from `tx`
/// (fixed calibration payload, `pad_samples` of silence around it) — the
/// modulation's inherent rotation under `cal`'s lag/power/window, i.e.
/// the bias to subtract at estimate time. cal.cfo_bias itself is ignored.
[[nodiscard]] double measure_cfo_bias(const PhyTx& tx,
                                      const RxCalibration& cal,
                                      std::size_t pad_samples = 0);

/// Calibration defaults for a registry entry: all three stages on, the
/// entry's cfo_lag, and the bias measured on a clean waveform from its TX.
[[nodiscard]] RxCalibration default_calibration(const RegisteredPhy& entry);

/// A ready-to-use calibrated receiver for a registry entry (owns the
/// wrapped RX). Pass a config to override default_calibration(entry).
[[nodiscard]] std::unique_ptr<PhyRx> make_calibrated_rx(
    const RegisteredPhy& entry);
[[nodiscard]] std::unique_ptr<PhyRx> make_calibrated_rx(
    const RegisteredPhy& entry, RxCalibration calibration);

}  // namespace tinysdr::phy
