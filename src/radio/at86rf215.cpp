#include "radio/at86rf215.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tinysdr::radio {

namespace {

/// Every radio state transition records an instant (with its settle cost)
/// and bumps a per-transition counter.
void note_transition(const char* name, Seconds cost) {
  if (auto* t = obs::tracer()) {
    t->instant("radio", name,
               {obs::TraceArg::num("cost_us", cost.microseconds())});
  }
  if (auto* m = obs::metrics())
    m->counter(std::string("radio.transitions.") + name).add();
}

}  // namespace

std::optional<Band> band_of(Hertz frequency) {
  double mhz = frequency.megahertz();
  if (mhz >= 389.5 && mhz <= 510.0) return Band::kSubGhz400;
  if (mhz >= 779.0 && mhz <= 1020.0) return Band::kSubGhz900;
  if (mhz >= 2400.0 && mhz <= 2483.5) return Band::kIsm2400;
  return std::nullopt;
}

At86rf215::At86rf215(At86rf215Config config)
    : config_(config), quantizer_(config.adc_bits, 1.0f) {}

Band At86rf215::band() const {
  auto b = band_of(frequency_);
  if (!b) throw std::logic_error("At86rf215: invalid stored frequency");
  return *b;
}

void At86rf215::set_frequency(Hertz frequency) {
  if (!band_of(frequency))
    throw std::invalid_argument(
        "At86rf215: frequency outside 389.5-510 / 779-1020 / 2400-2483.5 MHz");
  frequency_ = frequency;
}

void At86rf215::set_tx_power(Dbm power) {
  if (power < config_.min_tx_power || power > config_.max_tx_power)
    throw std::invalid_argument("At86rf215: TX power out of range");
  tx_power_ = power;
}

Seconds At86rf215::wake() {
  if (state_ != RadioState::kSleep) return Seconds{0.0};
  state_ = RadioState::kTrxOff;
  transition_time_ += timing_.radio_setup;
  note_transition("wake", timing_.radio_setup);
  return timing_.radio_setup;
}

Seconds At86rf215::sleep() {
  state_ = RadioState::kSleep;
  note_transition("sleep", Seconds{0.0});
  return Seconds{0.0};
}

Seconds At86rf215::enter_tx() {
  Seconds cost{0.0};
  switch (state_) {
    case RadioState::kSleep:
      throw std::logic_error("At86rf215: enter_tx from sleep; wake first");
    case RadioState::kRx:
      cost = timing_.rx_to_tx;
      break;
    case RadioState::kTrxOff:
    case RadioState::kTxPrep:
      cost = Seconds::from_microseconds(50.0);  // PLL settle from off
      break;
    case RadioState::kTx:
      return Seconds{0.0};
  }
  state_ = RadioState::kTx;
  transition_time_ += cost;
  note_transition("enter-tx", cost);
  return cost;
}

Seconds At86rf215::enter_rx() {
  Seconds cost{0.0};
  switch (state_) {
    case RadioState::kSleep:
      throw std::logic_error("At86rf215: enter_rx from sleep; wake first");
    case RadioState::kTx:
      cost = timing_.tx_to_rx;
      break;
    case RadioState::kTrxOff:
    case RadioState::kTxPrep:
      cost = Seconds::from_microseconds(90.0);  // PLL settle from off
      break;
    case RadioState::kRx:
      return Seconds{0.0};
  }
  state_ = RadioState::kRx;
  transition_time_ += cost;
  note_transition("enter-rx", cost);
  return cost;
}

Seconds At86rf215::retune(Hertz f) {
  if (state_ == RadioState::kSleep)
    throw std::logic_error("At86rf215: retune from sleep");
  set_frequency(f);
  transition_time_ += timing_.frequency_switch;
  note_transition("retune", timing_.frequency_switch);
  return timing_.frequency_switch;
}

dsp::Samples At86rf215::transmit(const dsp::Samples& baseband) const {
  if (state_ != RadioState::kTx)
    throw std::logic_error("At86rf215: transmit while not in TX");
  dsp::Samples out = baseband;
  quantizer_.roundtrip_in_place(out);
  return out;
}

dsp::Samples At86rf215::receive(const dsp::Samples& rf) const {
  if (state_ != RadioState::kRx)
    throw std::logic_error("At86rf215: receive while not in RX");

  // AGC: scale the block so its RMS sits at 1/4 full scale (12 dB backoff,
  // leaving headroom for the signal's crest factor), then quantize.
  double power = dsp::mean_power(rf);
  dsp::Samples out = rf;
  if (power > 0.0) {
    auto gain = static_cast<float>(0.25 / std::sqrt(power));
    for (auto& s : out) s *= gain;
  }
  quantizer_.roundtrip_in_place(out);
  // Undo the AGC gain so downstream processing sees calibrated amplitudes.
  if (power > 0.0) {
    auto inv = static_cast<float>(std::sqrt(power) / 0.25);
    for (auto& s : out) s *= inv;
  }
  return out;
}

}  // namespace tinysdr::radio
