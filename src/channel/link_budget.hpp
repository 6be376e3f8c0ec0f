// Link budget and large-scale propagation models for the campus testbed.
//
// The paper's Fig. 7 deployment spans an anonymized campus; we stand in a
// log-distance path-loss model (free-space reference at 1 m plus a
// path-loss exponent typical for suburban campus deployments) that produces
// the RSSI spread the OTA experiments (Fig. 14) exercise.
#pragma once

#include "common/units.hpp"

namespace tinysdr::channel {

/// Log-distance path loss model: PL(d) = FSPL(d0=1m, f) + 10 n log10(d).
class PathLossModel {
 public:
  /// @param carrier   RF carrier frequency
  /// @param exponent  path loss exponent (2.0 free space; ~2.9 campus)
  PathLossModel(Hertz carrier, double exponent)
      : carrier_(carrier), exponent_(exponent) {}

  /// Free-space path loss at 1 m for the carrier.
  [[nodiscard]] double reference_loss_db() const;

  /// Total path loss in dB at distance `meters` (>= 1 m enforced).
  [[nodiscard]] double loss_db(double meters) const;

  /// Received power for a given transmit power and distance.
  [[nodiscard]] Dbm received_power(Dbm tx_power, double meters) const;

  [[nodiscard]] Hertz carrier() const { return carrier_; }
  [[nodiscard]] double exponent() const { return exponent_; }

 private:
  Hertz carrier_;
  double exponent_;
};

/// Complete point-to-point link description.
struct Link {
  Dbm tx_power{14.0};
  double tx_antenna_gain_db = 0.0;
  double rx_antenna_gain_db = 0.0;
  double distance_meters = 100.0;
  double shadowing_db = 0.0;  ///< log-normal shadowing realisation

  [[nodiscard]] Dbm rssi(const PathLossModel& model) const {
    return model.received_power(tx_power, distance_meters) +
           tx_antenna_gain_db + rx_antenna_gain_db - shadowing_db;
  }
};

}  // namespace tinysdr::channel
