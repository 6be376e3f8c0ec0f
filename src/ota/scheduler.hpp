// OTA rendezvous scheduling (paper §3.4).
//
// "We pre-program a timer on the MCU to periodically turn off the FPGA and
// switch from IQ radio mode to the backbone radio to listen for new
// firmware updates. If there is an update, the AP sends a programming
// request ... along with the time they should wake up to receive the
// update."
//
// This module models the rendezvous economics: each node wakes every
// `listen_interval` for a short backbone-listen window; an update issued at
// an arbitrary time must wait for the next window of each target node; the
// standing cost is the idle-listen energy. The ablation bench sweeps the
// interval against both.
#pragma once

#include "common/units.hpp"
#include "power/platform_power.hpp"

namespace tinysdr::ota {

struct ListenSchedule {
  Seconds interval{600.0};  ///< MCU wakeup timer period
  Seconds window = Seconds::from_milliseconds(50.0);  ///< listen duration
  Seconds phase{0.0};       ///< first window offset

  /// Fraction of time spent listening.
  [[nodiscard]] double duty() const {
    return window.value() / interval.value();
  }
};

/// Average standing power of the rendezvous listening (backbone RX during
/// windows, sleep otherwise).
[[nodiscard]] Milliwatts idle_listen_power(const ListenSchedule& schedule);

/// Average latency from "update available" to "node listening".
[[nodiscard]] Seconds average_rendezvous(const ListenSchedule& schedule);

}  // namespace tinysdr::ota
