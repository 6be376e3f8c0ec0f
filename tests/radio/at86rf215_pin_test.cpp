// Byte pins of At86rf215::receive with default settings: AGC -> 13-bit
// ADC -> AGC gain undone, on a padded SF8 LoRa capture with seeded AWGN at
// two input powers. Each pin holds the output size, the FNV-1a hash of the
// output bytes and the first and last samples, so any change to the
// receive path's arithmetic shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <vector>

#include "channel/noise.hpp"
#include "lora/modulator.hpp"
#include "radio/at86rf215.hpp"

namespace tinysdr::radio {
namespace {

std::uint64_t fnv1a(const dsp::Samples& x) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(dsp::Complex); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

bool same_bits(dsp::Complex a, dsp::Complex b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// 300 zeros, an SF8/BW125 packet at critical sampling, 300 zeros, plus
/// AWGN at -120 dBm; then scaled by `amplitude` to set the input power.
dsp::Samples capture(float amplitude) {
  const lora::LoraParams params{8, Hertz::from_kilohertz(125.0)};
  const lora::Modulator mod{params, params.bandwidth};
  const std::vector<std::uint8_t> payload{0xAB, 0xCD, 0x42};
  dsp::Samples x(300, dsp::Complex{0.0f, 0.0f});
  mod.modulate(payload, x);
  x.insert(x.end(), 300, dsp::Complex{0.0f, 0.0f});
  channel::AwgnChannel chan{params.bandwidth, 6.0, Rng{0xAD, 7}};
  chan.add_noise(x, chan.snr_db(Dbm{-120.0}));
  for (auto& s : x) s *= amplitude;
  return x;
}

struct Pin {
  float amplitude;
  std::size_t size;
  std::uint64_t hash;
  dsp::Complex first;
  dsp::Complex last;
};

TEST(At86rf215Pin, ReceiveDefaultsOnPaddedLoraCapture) {
  // Recorded before the front-end impairment loop left receive().
  const Pin pins[] = {
      {1.0f, 8856, 0x506ad01627a4c6f8ull,
       {0x1.7e2072p-1f, 0x1.937f9cp-3f},
       {-0x1.79da36p-2f, 0x1.7b8fe8p+1f}},
      {1e-3f, 8856, 0xf04b8e239b1740c4ull,
       {0x1.874c3cp-11f, 0x1.9d2eb6p-13f},
       {-0x1.82ebbep-12f, 0x1.84abfp-9f}},
  };
  At86rf215Config cfg;
  cfg.sample_rate = Hertz::from_kilohertz(125.0);
  At86rf215 radio{cfg};
  radio.wake();
  radio.enter_rx();
  for (const Pin& pin : pins) {
    const dsp::Samples out = radio.receive(capture(pin.amplitude));
    ASSERT_EQ(out.size(), pin.size) << pin.amplitude;
    EXPECT_EQ(fnv1a(out), pin.hash) << std::hex << fnv1a(out);
    EXPECT_TRUE(same_bits(out.front(), pin.first))
        << std::hexfloat << out.front();
    EXPECT_TRUE(same_bits(out.back(), pin.last)) << std::hexfloat << out.back();
  }
}

}  // namespace
}  // namespace tinysdr::radio
