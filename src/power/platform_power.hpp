// Whole-platform power model, calibrated against the paper's measurements:
//   - sleep mode: 30 uW total (§5.1)
//   - single-tone TX: 231 mW @ 0 dBm rising to 283 mW @ 14 dBm (Fig. 9)
//   - LoRa packet TX (SF9/BW500, 14 dBm): 287 mW, RX: 186 mW (§5.2)
//   - concurrent dual-demod RX: 207 mW (§6)
//
// The model sums per-component operating points through the PMU's domain
// regulators, so the same machinery yields duty-cycled averages and battery
// lifetimes.
#pragma once

#include <map>

#include "common/units.hpp"
#include "fpga/resources.hpp"
#include "power/domains.hpp"
#include "radio/at86rf215.hpp"

namespace tinysdr::power {

/// FPGA power: static leakage + clocking (PLL + LVDS I/O at 64 MHz) +
/// per-LUT dynamic power. Calibrated so the §5.2 totals decompose
/// consistently (see DESIGN.md).
struct FpgaPowerModel {
  Milliwatts static_mw{36.0};
  Milliwatts clocking_mw{28.0};
  double dynamic_mw_per_lut = 0.015;

  [[nodiscard]] Milliwatts active(std::uint32_t luts) const {
    return static_mw + clocking_mw +
           Milliwatts{dynamic_mw_per_lut * static_cast<double>(luts)};
  }
};

/// MCU operating points (MSP432P401R).
struct McuPowerModel {
  Milliwatts active{12.0};                           ///< 48 MHz run mode
  Milliwatts lpm3_uw = Milliwatts::from_microwatts(5.0);  ///< RTC-only sleep
};

/// Static sleep-mode draws of everything else, in microwatts (battery side).
struct SleepBudget {
  double iq_radio_uw = 0.1;
  double backbone_radio_uw = 0.7;
  double pas_uw = 6.5;        ///< both PAs at 1 uA sleep
  double flash_uw = 1.3;      ///< deep power-down
  double board_leak_uw = 14.5;  ///< dividers, pull-ups, misc leakage

  [[nodiscard]] double total_uw() const {
    return iq_radio_uw + backbone_radio_uw + pas_uw + flash_uw + board_leak_uw;
  }
};

/// Activity the platform is performing, for power accounting.
enum class Activity {
  kSleep,
  kSingleTone900,
  kSingleTone2400,
  kLoraTransmit,
  kLoraReceive,
  kConcurrentReceive,
  kBleTransmit,
  kOtaReceive,   ///< backbone radio RX + MCU, FPGA off
  kDecompress,   ///< MCU active, radios off
};

/// Radio TX DC draw against RF output power: flat at or below the knee,
/// then rising at 1/PA efficiency (the radio part of Fig. 9).
struct TxPowerCurve {
  Milliwatts flat_region{0.0};   ///< DC draw at/below the knee
  Dbm knee{0.0};                 ///< output level where DC starts rising
  double slope_mw_per_mw = 0.0;  ///< dDC/dRF above the knee (1/efficiency)

  [[nodiscard]] Milliwatts dc_draw(Dbm rf_output) const {
    if (rf_output <= knee) return flat_region;
    double extra = rf_output.milliwatts() - knee.milliwatts();
    return flat_region + Milliwatts{extra * slope_mw_per_mw};
  }
};

/// Stable kebab-case label (telemetry metric keys, logs).
[[nodiscard]] const char* to_string(Activity activity);

class PlatformPowerModel {
 public:
  /// Total battery-side draw for an activity. TX activities take the RF
  /// output power; others ignore it.
  [[nodiscard]] Milliwatts draw(Activity activity,
                                Dbm tx_power = Dbm{0.0}) const;

  /// Draw with an explicit FPGA design loaded (for custom designs).
  [[nodiscard]] Milliwatts draw_with_design(Activity activity,
                                            const fpga::Design& design,
                                            Dbm tx_power = Dbm{0.0}) const;

  /// Sleep power (paper: 30 uW).
  [[nodiscard]] Milliwatts sleep_power() const;

  /// Average power for a duty cycle: `active_fraction` of time in
  /// `activity`, the rest asleep (wakeup energy amortised separately).
  [[nodiscard]] Milliwatts duty_cycled_average(Activity activity,
                                               double active_fraction,
                                               Dbm tx_power = Dbm{0.0}) const;

  [[nodiscard]] const FpgaPowerModel& fpga() const { return fpga_; }
  [[nodiscard]] const McuPowerModel& mcu() const { return mcu_; }
  [[nodiscard]] const SleepBudget& sleep_budget() const { return sleep_; }

  /// Radio TX DC draw at an output power (the Fig. 9 radio curve).
  [[nodiscard]] Milliwatts radio_tx_draw(radio::Band band, Dbm out) const;
  /// Radio RX DC draw with the LVDS interface streaming.
  [[nodiscard]] Milliwatts radio_rx_draw() const { return Milliwatts{59.0}; }
  /// Backbone (SX1276) RX draw.
  [[nodiscard]] Milliwatts backbone_rx_draw() const { return Milliwatts{39.0}; }

 private:
  FpgaPowerModel fpga_;
  McuPowerModel mcu_;
  SleepBudget sleep_;
  // Radio TX curves calibrated so whole-platform totals reproduce Fig. 9:
  // 231 mW at 0 dBm and 283 mW at 14 dBm for 900 MHz (tone overhead is
  // ~91.5 mW); the 2.4 GHz synthesizer chain draws slightly more.
  TxPowerCurve tx_900_{Milliwatts{139.5}, Dbm{0.0}, 2.16};
  TxPowerCurve tx_2400_{Milliwatts{143.5}, Dbm{0.0}, 2.20};
  Milliwatts regulator_overhead_{10.0};
};

}  // namespace tinysdr::power
