#include "channel/link_budget.hpp"

#include <cmath>
#include <stdexcept>

namespace tinysdr::channel {

namespace {
constexpr double kSpeedOfLight = 299792458.0;
}

double PathLossModel::reference_loss_db() const {
  // FSPL(d, f) = 20 log10(4*pi*d*f/c), at d = 1 m.
  double ratio = 4.0 * 3.14159265358979323846 * carrier_.value() /
                 kSpeedOfLight;
  return 20.0 * std::log10(ratio);
}

double PathLossModel::loss_db(double meters) const {
  double d = std::max(meters, 1.0);
  return reference_loss_db() + 10.0 * exponent_ * std::log10(d);
}

Dbm PathLossModel::received_power(Dbm tx_power, double meters) const {
  return tx_power - loss_db(meters);
}

}  // namespace tinysdr::channel
