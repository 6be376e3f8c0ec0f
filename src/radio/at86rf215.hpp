// Behavioural model of the AT86RF215 I/Q radio transceiver.
//
// This is the platform's only RF chip for payload traffic (paper §3.1.1):
// it exposes raw 13-bit I/Q at 4 MHz over LVDS, covers the 389.5-510 /
// 779-1020 / 2400-2483.5 MHz bands, transmits up to +14 dBm, and has a
// 3-5 dB noise figure front end with LNA + AGC on the receive chain.
//
// The model covers: band/frequency validation, the TRX state machine with
// the measured switching delays (Table 4), DC power draw per state
// (calibrated to Fig. 9 and Table 2), and the DAC/AGC/ADC signal path.
#pragma once

#include <optional>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/types.hpp"
#include "radio/quantizer.hpp"
#include "radio/timing.hpp"

namespace tinysdr::radio {

enum class RadioState { kSleep, kTrxOff, kTxPrep, kTx, kRx };

enum class Band { kSubGhz400, kSubGhz900, kIsm2400 };

/// Which band a carrier frequency falls into, if any.
[[nodiscard]] std::optional<Band> band_of(Hertz frequency);

struct At86rf215Config {
  Hertz sample_rate = Hertz::from_megahertz(4.0);
  int adc_bits = 13;
  double noise_figure_db = 4.0;
  Dbm max_tx_power{14.0};
  Dbm min_tx_power{-14.0};
};

class At86rf215 {
 public:
  explicit At86rf215(At86rf215Config config = {});

  [[nodiscard]] const At86rf215Config& config() const { return config_; }
  [[nodiscard]] RadioState state() const { return state_; }
  [[nodiscard]] Hertz frequency() const { return frequency_; }
  [[nodiscard]] Dbm tx_power() const { return tx_power_; }
  [[nodiscard]] Band band() const;

  /// Accumulated time spent in state transitions since construction.
  [[nodiscard]] Seconds transition_time() const { return transition_time_; }

  /// @throws std::invalid_argument for frequencies outside all three bands.
  void set_frequency(Hertz frequency);

  /// @throws std::invalid_argument outside [min, max] TX power.
  void set_tx_power(Dbm power);

  /// State transitions; each returns the time it took (per Table 4) and
  /// accrues into transition_time().
  Seconds wake();           ///< kSleep  -> kTrxOff
  Seconds sleep();          ///< any     -> kSleep
  Seconds enter_tx();       ///< kTrxOff/kRx -> kTx
  Seconds enter_rx();       ///< kTrxOff/kTx -> kRx
  Seconds retune(Hertz f);  ///< frequency switch (any active state)

  /// Transmit path: waveform -> DAC quantization. The input must be a
  /// unit-power-normalised baseband block; the output is the DAC-shaped
  /// waveform the antenna sees (still unit power scale — absolute power is
  /// carried separately by tx_power()).
  /// @throws std::logic_error unless in kTx.
  [[nodiscard]] dsp::Samples transmit(const dsp::Samples& baseband) const;

  /// Receive path: antenna waveform -> AGC -> ADC quantization, with the
  /// AGC gain undone on the way out. Front-end defects (DC, IQ imbalance,
  /// CFO) are impair:: blocks applied to the waveform before this call.
  /// @throws std::logic_error unless in kRx.
  [[nodiscard]] dsp::Samples receive(const dsp::Samples& rf) const;

  [[nodiscard]] const TimingModel& timing() const { return timing_; }

 private:
  At86rf215Config config_;
  TimingModel timing_;
  IqQuantizer quantizer_;
  RadioState state_ = RadioState::kSleep;
  Hertz frequency_ = Hertz::from_megahertz(915.0);
  Dbm tx_power_{0.0};
  Seconds transition_time_{0.0};
};

}  // namespace tinysdr::radio
