// Calibration / correction blocks matching the impairment pipeline — the
// software twins of litex_m2sdr's dc_filter and iq_correction gateware.
//
// Capture-based estimators (remove_dc, estimate/correct_iq_imbalance):
// blind statistics over a whole demod capture, used by phy::CalibratedRx
// on the batch RX path.
//
// CFO estimation/correction lives in dsp/cfo.hpp (it is a generic DSP
// primitive the demodulators may also want); phy::CalibratedRx wires all
// three together behind the opt-in RxCalibration config.
#pragma once

#include <span>

#include "dsp/types.hpp"

namespace tinysdr::impair {

/// Subtract the capture's mean from every sample (block DC estimator).
/// Returns the removed offset.
dsp::Complex remove_dc(std::span<dsp::Complex> x);

/// Blind IQ-imbalance estimate in the Moseley–Slump circularity form:
/// for a proper (circular) transmit signal distorted to
///   I' = I,  Q' = g*(sin(phi)*I + cos(phi)*Q),
/// the statistics E[sgn(I')Q'], E[|I'|], E[|Q'|] recover
///   c1 = g*sin(phi)  (I->Q crosstalk)  and  c2 = g*cos(phi) (Q gain),
/// so the correction Q = (Q' - c1*I')/c2 restores the clean signal.
struct IqEstimate {
  double c1 = 0.0;
  double c2 = 1.0;

  /// The imbalance parameters this estimate implies.
  [[nodiscard]] double gain_db() const;
  [[nodiscard]] double phase_deg() const;
};

[[nodiscard]] IqEstimate estimate_iq_imbalance(
    std::span<const dsp::Complex> x);

/// Apply the inverse transform Q = (Q' - c1*I')/c2 in place. Degenerate
/// estimates (c2 ~ 0, from an empty or rail-dead capture) are a no-op.
void correct_iq_imbalance(std::span<dsp::Complex> x, const IqEstimate& est);

/// Convenience: estimate then correct; returns the estimate used.
IqEstimate correct_iq_imbalance(std::span<dsp::Complex> x);

}  // namespace tinysdr::impair
