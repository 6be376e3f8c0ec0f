#include "ota/scheduler.hpp"

namespace tinysdr::ota {

Milliwatts idle_listen_power(const ListenSchedule& schedule) {
  power::PlatformPowerModel model;
  double d = schedule.duty();
  double listen_mw = model.draw(power::Activity::kOtaReceive).value();
  double sleep_mw = model.sleep_power().value();
  return Milliwatts{d * listen_mw + (1.0 - d) * sleep_mw};
}

Seconds average_rendezvous(const ListenSchedule& schedule) {
  return Seconds{schedule.interval.value() / 2.0};
}

}  // namespace tinysdr::ota
