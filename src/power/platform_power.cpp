#include "power/platform_power.hpp"

#include <stdexcept>

namespace tinysdr::power {

const char* to_string(Activity activity) {
  switch (activity) {
    case Activity::kSleep:
      return "sleep";
    case Activity::kSingleTone900:
      return "single-tone-900";
    case Activity::kSingleTone2400:
      return "single-tone-2400";
    case Activity::kLoraTransmit:
      return "lora-tx";
    case Activity::kLoraReceive:
      return "lora-rx";
    case Activity::kConcurrentReceive:
      return "concurrent-rx";
    case Activity::kBleTransmit:
      return "ble-tx";
    case Activity::kOtaReceive:
      return "ota-rx";
    case Activity::kDecompress:
      return "decompress";
  }
  return "?";
}

namespace {
/// Single-tone generator design: NCO (phase integrator + sin/cos LUT) and
/// the LVDS serializer.
fpga::Design tone_design() {
  fpga::Design d{"single_tone"};
  d.add(fpga::Block::kPhaseIntegrator)
      .add(fpga::Block::kSinCosLut)
      .add(fpga::Block::kIqSerializer);
  return d;
}
}  // namespace

Milliwatts PlatformPowerModel::radio_tx_draw(radio::Band band, Dbm out) const {
  return band == radio::Band::kIsm2400 ? tx_2400_.dc_draw(out)
                                       : tx_900_.dc_draw(out);
}

Milliwatts PlatformPowerModel::sleep_power() const {
  // MCU in LPM3 plus every static leak; FPGA and regulators shut down.
  return mcu_.lpm3_uw +
         Milliwatts::from_microwatts(sleep_.total_uw()) +
         Milliwatts::from_microwatts(5 * 0.1 * 3.7);  // 5 regs in shutdown
}

Milliwatts PlatformPowerModel::draw_with_design(Activity activity,
                                                const fpga::Design& design,
                                                Dbm tx_power) const {
  switch (activity) {
    case Activity::kSleep:
      return sleep_power();
    case Activity::kSingleTone900:
    case Activity::kLoraTransmit:
      return radio_tx_draw(radio::Band::kSubGhz900, tx_power) +
             fpga_.active(design.total_luts()) + mcu_.active +
             regulator_overhead_;
    case Activity::kSingleTone2400:
    case Activity::kBleTransmit:
      return radio_tx_draw(radio::Band::kIsm2400, tx_power) +
             fpga_.active(design.total_luts()) + mcu_.active +
             regulator_overhead_;
    case Activity::kLoraReceive:
    case Activity::kConcurrentReceive:
      return radio_rx_draw() + fpga_.active(design.total_luts()) +
             mcu_.active + regulator_overhead_;
    case Activity::kOtaReceive:
      // Backbone radio RX + MCU writing flash; FPGA and I/Q radio off.
      return backbone_rx_draw() + mcu_.active + Milliwatts{4.0} /* flash */ +
             regulator_overhead_;
    case Activity::kDecompress:
      return mcu_.active + Milliwatts{4.0} + regulator_overhead_;
  }
  throw std::invalid_argument("PlatformPowerModel: unknown activity");
}

Milliwatts PlatformPowerModel::draw(Activity activity, Dbm tx_power) const {
  switch (activity) {
    case Activity::kSleep:
      return sleep_power();
    case Activity::kSingleTone900:
    case Activity::kSingleTone2400:
      return draw_with_design(activity, tone_design(), tx_power);
    case Activity::kLoraTransmit:
      return draw_with_design(activity, fpga::lora_tx_design(), tx_power);
    case Activity::kLoraReceive:
      return draw_with_design(activity, fpga::lora_rx_design(8), tx_power);
    case Activity::kConcurrentReceive:
      return draw_with_design(activity, fpga::concurrent_rx_design({8, 8}),
                              tx_power);
    case Activity::kBleTransmit:
      return draw_with_design(activity, fpga::ble_tx_design(), tx_power);
    case Activity::kOtaReceive:
    case Activity::kDecompress:
      return draw_with_design(activity, tone_design(), tx_power);
  }
  throw std::invalid_argument("PlatformPowerModel: unknown activity");
}

Milliwatts PlatformPowerModel::duty_cycled_average(Activity activity,
                                                   double active_fraction,
                                                   Dbm tx_power) const {
  if (active_fraction < 0.0 || active_fraction > 1.0)
    throw std::invalid_argument("duty_cycled_average: fraction out of [0,1]");
  Milliwatts active = draw(activity, tx_power);
  Milliwatts asleep = sleep_power();
  return Milliwatts{active.value() * active_fraction +
                    asleep.value() * (1.0 - active_fraction)};
}

}  // namespace tinysdr::power
