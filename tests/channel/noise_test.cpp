#include "channel/noise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

namespace tinysdr::channel {
namespace {

TEST(NoiseFloor, MatchesTextbookFormula) {
  // -174 + 10log10(125k) + 6 = -117.03 dBm.
  Dbm floor = noise_floor(Hertz::from_kilohertz(125.0), 6.0);
  EXPECT_NEAR(floor.value(), -117.03, 0.05);
}

TEST(NoiseFloor, DoublingBandwidthAddsThreeDb) {
  Dbm f125 = noise_floor(Hertz::from_kilohertz(125.0));
  Dbm f250 = noise_floor(Hertz::from_kilohertz(250.0));
  EXPECT_NEAR(f250 - f125, 3.01, 0.02);
}

TEST(AwgnChannel, SnrMatchesRequested) {
  Rng rng{42};
  AwgnChannel chan{Hertz::from_kilohertz(125.0), 6.0, rng};
  // Unit-power signal of ones.
  dsp::Samples signal(50000, dsp::Complex{1.0f, 0.0f});
  double snr_db = 10.0;
  auto noisy = chan.apply_snr(signal, snr_db);

  // Measure noise power as deviation from the known signal.
  double noise_power = 0.0;
  for (std::size_t i = 0; i < noisy.size(); ++i)
    noise_power += std::norm(noisy[i] - signal[i]);
  noise_power /= static_cast<double>(noisy.size());
  EXPECT_NEAR(10.0 * std::log10(1.0 / noise_power), snr_db, 0.2);
}

TEST(AwgnChannel, RssiMapping) {
  Rng rng{7};
  AwgnChannel chan{Hertz::from_kilohertz(125.0), 6.0, rng};
  // RSSI at the floor => 0 dB SNR.
  EXPECT_NEAR(chan.snr_db(chan.floor()), 0.0, 1e-9);
  EXPECT_NEAR(chan.snr_db(chan.floor() + 10.0), 10.0, 1e-9);
}

TEST(AwgnChannel, NoiseOnlyPowerCalibrated) {
  Rng rng{19};
  AwgnChannel chan{Hertz::from_kilohertz(125.0), 6.0, rng};
  Dbm ref = chan.floor() + 6.0;  // signal would be 6 dB above floor
  auto noise = chan.noise_only(100000, ref);
  double p = dsp::mean_power(noise);
  // Noise power relative to unit signal = 10^(-6/10).
  EXPECT_NEAR(10.0 * std::log10(p), -6.0, 0.2);
}

TEST(AwgnChannel, AddNoiseSplitIntoChunksMatchesOneCall) {
  const Hertz fs = Hertz::from_kilohertz(125.0);
  for (bool primed : {false, true}) {
    Rng rng{31};
    if (primed) (void)rng.next_gaussian();
    dsp::Samples whole(4099, dsp::Complex{0.5f, -0.25f});
    AwgnChannel one{fs, 6.0, rng};
    one.add_noise(whole, 3.0);
    for (std::size_t chunk : {1u, 3u, 255u, 256u, 257u, 1000u}) {
      dsp::Samples split(whole.size(), dsp::Complex{0.5f, -0.25f});
      AwgnChannel chan{fs, 6.0, rng};
      for (std::size_t i = 0; i < split.size(); i += chunk)
        chan.add_noise(std::span{split}.subspan(
                           i, std::min(chunk, split.size() - i)),
                       3.0);
      EXPECT_EQ(std::memcmp(split.data(), whole.data(),
                            whole.size() * sizeof(dsp::Complex)),
                0)
          << "chunk " << chunk << " primed " << primed;
    }
  }
}

TEST(Superpose, RelativePowerScaling) {
  dsp::Samples a(1000, dsp::Complex{1.0f, 0.0f});
  dsp::Samples b(1000, dsp::Complex{1.0f, 0.0f});
  superpose(a, b, -20.0);
  // b is 20 dB below a: amplitude contribution 0.1.
  EXPECT_NEAR(a[0].real(), 1.1f, 1e-4);
}

TEST(Superpose, OffsetPlacement) {
  dsp::Samples a(10, dsp::Complex{0.0f, 0.0f});
  dsp::Samples b(3, dsp::Complex{1.0f, 0.0f});
  superpose(a, b, 0.0, 5);
  EXPECT_NEAR(a[4].real(), 0.0f, 1e-6);
  EXPECT_NEAR(a[5].real(), 1.0f, 1e-6);
  EXPECT_NEAR(a[7].real(), 1.0f, 1e-6);
  EXPECT_NEAR(a[8].real(), 0.0f, 1e-6);
}

TEST(Superpose, TruncatesAtEnd) {
  dsp::Samples a(4, dsp::Complex{0.0f, 0.0f});
  dsp::Samples b(10, dsp::Complex{1.0f, 0.0f});
  superpose(a, b, 0.0, 2);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_NEAR(a[3].real(), 1.0f, 1e-6);
}

}  // namespace
}  // namespace tinysdr::channel
