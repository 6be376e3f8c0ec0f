#include "ble/advertiser.hpp"

#include <gtest/gtest.h>

#include "ble/cc2650.hpp"

namespace tinysdr::ble {
namespace {

AdvPacket beacon() {
  AdvPacket p;
  p.adv_address = {0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF};
  p.adv_data = {0x02, 0x01, 0x06};
  return p;
}

TEST(Advertiser, BurstCoversThreeChannelsInOrder) {
  Advertiser adv{beacon()};
  auto schedule = adv.burst_schedule();
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule[0].channel_index, 37);
  EXPECT_EQ(schedule[1].channel_index, 38);
  EXPECT_EQ(schedule[2].channel_index, 39);
  EXPECT_LT(schedule[0].start_us, schedule[1].start_us);
  EXPECT_LT(schedule[1].start_us, schedule[2].start_us);
}

TEST(Advertiser, HopGapIs220Microseconds) {
  // Fig. 13: "our system can transmit packets with as little as 220 us
  // delay between beacons" (an iPhone 8 needs 350 us).
  Advertiser adv{beacon()};
  EXPECT_NEAR(adv.hop_gap().microseconds(), 220.0, 1e-9);
  EXPECT_LT(adv.hop_gap().microseconds(), 350.0);
  auto schedule = adv.burst_schedule();
  double gap = schedule[1].start_us -
               (schedule[0].start_us + schedule[0].duration_us);
  EXPECT_NEAR(gap, 220.0, 1e-9);
}

TEST(Advertiser, BurstDurationConsistent) {
  Advertiser adv{beacon()};
  auto schedule = adv.burst_schedule();
  double expected_us =
      schedule.back().start_us + schedule.back().duration_us;
  EXPECT_NEAR(adv.burst_duration().microseconds(), expected_us, 1e-6);
}

TEST(Advertiser, WaveformLengthMatchesAirtime) {
  Advertiser adv{beacon()};
  GfskConfig cfg;
  auto wave = adv.waveform(37);
  double expected_samples = airtime_us(beacon()) * 1e-6 *
                            cfg.sample_rate().value();
  // Gaussian filter adds span-symbols of tail.
  EXPECT_NEAR(static_cast<double>(wave.size()), expected_samples, 64.0);
}

TEST(Advertiser, EnvelopeShowsThreeBursts) {
  // Fig. 13's envelope-detector view: three active regions separated by
  // quiet hop gaps.
  Advertiser adv{beacon()};
  auto envelope = adv.burst_envelope();
  // Segment into active/idle runs.
  int transitions = 0;
  bool active = false;
  for (double v : envelope) {
    bool now = v > 0.5;
    if (now != active) {
      ++transitions;
      active = now;
    }
  }
  // on/off for three bursts = 6 transitions (last burst may end at array
  // end without an off transition).
  EXPECT_GE(transitions, 5);
  EXPECT_LE(transitions, 7);
}

TEST(Advertiser, EndToEndReceptionOnEveryChannel) {
  Advertiser adv{beacon()};
  Cc2650Model rx;
  for (const auto& chan : kAdvChannels) {
    auto wave = adv.waveform(chan.index);
    auto bits = assemble_air_bits(beacon(), chan.index);
    Rng rng{static_cast<std::uint64_t>(chan.index)};
    auto result = rx.receive(wave, bits, chan.index, Dbm{-70.0}, rng);
    ASSERT_TRUE(result.has_value()) << "channel " << chan.index;
    EXPECT_EQ(result->adv.packet.adv_data, beacon().adv_data);
    EXPECT_LT(result->ber, 1e-3);
  }
}

TEST(Cc2650, FailsFarBelowSensitivity) {
  Advertiser adv{beacon()};
  Cc2650Model rx;
  auto wave = adv.waveform(37);
  auto bits = assemble_air_bits(beacon(), 37);
  Rng rng{5};
  // -110 dBm is 13 dB below the chip's sensitivity.
  auto result = rx.receive(wave, bits, 37, Dbm{-110.0}, rng);
  EXPECT_FALSE(result.has_value());
}

}  // namespace
}  // namespace tinysdr::ble
