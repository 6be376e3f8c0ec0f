// Byte pins of Demodulator::condition on seeded oversampled captures.
//
// The pinned values were recorded from the receiver that ran the FIR on
// every input sample and kept each oversampling-th output. The decimating
// kernel, which computes only the kept outputs, must reproduce them
// exactly: same sample count, same FNV-1a hash of the output bytes, same
// first and last sample.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>

#include "channel/noise.hpp"
#include "common/rng.hpp"
#include "lora/chirp.hpp"
#include "lora/demodulator.hpp"

namespace tinysdr::lora {
namespace {

/// Six random upchirps with AWGN at 0 dB SNR and a run of signed zeros
/// (in both rails, longer than the filter) between the third and fourth,
/// then a short silence. The capture starts with signal, so the first
/// outputs depend on the zero-history edge.
dsp::Samples make_capture(const LoraParams& p, Hertz fs, std::uint64_t seed) {
  ChirpGenerator chirps{p, fs};
  channel::AwgnChannel chan{fs, 6.0, Rng{seed, 1}};
  Rng rng{seed};
  dsp::Samples iq;
  for (int s = 0; s < 6; ++s) {
    if (s == 3) {
      const std::size_t run = 37 + rng.next_below(64);
      for (std::size_t i = 0; i < run; ++i)
        iq.push_back(i % 3 == 0   ? dsp::Complex{-0.0f, 0.0f}
                     : i % 3 == 1 ? dsp::Complex{0.0f, -0.0f}
                                  : dsp::Complex{-0.0f, -0.0f});
    }
    auto sym = chirps.symbol(rng.next_below(p.chips()), ChirpDirection::kUp);
    chan.add_noise(sym, 0.0);
    iq.insert(iq.end(), sym.begin(), sym.end());
  }
  iq.insert(iq.end(), chirps.oversampling() + 3, dsp::Complex{});
  return iq;
}

std::uint64_t fnv1a(const dsp::Samples& x) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(dsp::Complex); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Pin {
  std::size_t size;
  std::uint64_t hash;
  dsp::Complex first;
  dsp::Complex last;
};

bool same_bits(dsp::Complex a, dsp::Complex b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_pinned(int sf, double bw_khz, double fs_khz, const Pin& pin) {
  const LoraParams p{sf, Hertz::from_kilohertz(bw_khz)};
  const Hertz fs = Hertz::from_kilohertz(fs_khz);
  const auto seed = static_cast<std::uint64_t>(sf * 1000 + fs_khz + bw_khz);
  const Demodulator demod{p, fs};
  const dsp::Samples out = demod.condition(make_capture(p, fs, seed));
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.size(), pin.size);
  EXPECT_EQ(fnv1a(out), pin.hash);
  EXPECT_TRUE(same_bits(out.front(), pin.first))
      << std::hexfloat << out.front();
  EXPECT_TRUE(same_bits(out.back(), pin.last)) << std::hexfloat << out.back();
}

TEST(ConditionPins, Sf8Bw125At500kHz) {
  expect_pinned(8, 125.0, 500.0,
                Pin{1548, 4134831892590346886ull,
                    {0x1.0e7dc4p-3f, -0x1.4fbe54p-2f},
                    {-0x1.651f24p-2f, -0x1.b7913ap-1f}});
}

TEST(ConditionPins, Sf8Bw250At500kHz) {
  expect_pinned(8, 250.0, 500.0,
                Pin{1556, 3259393196337725196ull,
                    {0x1.380b72p-1f, -0x1.28b444p-3f},
                    {-0x1.dde1ep-1f, -0x1.10fbeep+0f}});
}

TEST(ConditionPins, Sf7Bw125At1MHz) {
  expect_pinned(7, 125.0, 1000.0,
                Pin{777, 13806559377737249997ull,
                    {0x1.3b25f6p-1f, -0x1.48b9ccp-2f},
                    {0x1.422ec8p+0f, 0x1.8e3f7cp-2f}});
}

}  // namespace
}  // namespace tinysdr::lora
