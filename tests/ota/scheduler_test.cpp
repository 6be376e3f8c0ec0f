#include "ota/scheduler.hpp"

#include <gtest/gtest.h>

namespace tinysdr::ota {
namespace {

TEST(ListenSchedule, DutyFraction) {
  ListenSchedule s;
  s.interval = Seconds{600.0};
  s.window = Seconds::from_milliseconds(50.0);
  EXPECT_NEAR(s.duty(), 0.05 / 600.0, 1e-12);
}

TEST(IdleListenPower, NearSleepForLongIntervals) {
  // 50 ms of backbone RX every 10 minutes adds single-digit microwatts to
  // the 30 uW sleep floor — the paper's design intent.
  ListenSchedule s;
  s.interval = Seconds{600.0};
  Milliwatts avg = idle_listen_power(s);
  EXPECT_LT(avg.microwatts(), 45.0);
  EXPECT_GT(avg.microwatts(), 29.0);
}

TEST(IdleListenPower, ShortIntervalsCostReal) {
  ListenSchedule rarely, often;
  rarely.interval = Seconds{3600.0};
  often.interval = Seconds{5.0};
  EXPECT_GT(idle_listen_power(often).value(),
            idle_listen_power(rarely).value() * 10.0);
}

TEST(Rendezvous, WorstAndAverage) {
  ListenSchedule s;
  s.interval = Seconds{600.0};
  EXPECT_DOUBLE_EQ(average_rendezvous(s).value(), 300.0);
}

}  // namespace
}  // namespace tinysdr::ota
