// Byte pins of IqQuantizer::roundtrip_in_place at 2, 8, 13, 16 and 24 bits.
//
// The pinned values were recorded from the element-wise
// dequantize(quantize(x)) loop, which is the definition of the round trip.
// Any faster path must reproduce them exactly. Each 1001-sample block
// (2002 floats, not a multiple of 8, so an 8-wide loop leaves a tail)
// mixes in-range values with NaN, +-inf, +-0, exact +-(k + 1/2) steps,
// the saturation edges and out-of-range values. Each depth runs at full scale 1 (the
// radio's, whose step is inexact) and at full scale max_code / 4 (step
// 1/4, so every half step is exact after the division).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <limits>

#include "common/rng.hpp"
#include "radio/quantizer.hpp"

namespace tinysdr::radio {
namespace {

constexpr std::size_t kBlock = 1001;

dsp::Samples make_block(const IqQuantizer& q, std::uint64_t seed) {
  const float full = q.full_scale();
  const float step = full / static_cast<float>(q.max_code());
  const auto top = static_cast<float>(q.max_code());
  Rng rng{seed, 9};
  dsp::Samples x(kBlock);
  for (auto& s : x) {
    auto rail = [&] {
      const std::uint32_t r = rng.next_u32();
      const float sign = (r & 0x10u) ? -1.0f : 1.0f;
      switch (r & 0xFu) {
        case 0:
          return sign * 0.0f;
        case 1:
          return std::numeric_limits<float>::quiet_NaN();
        case 2:
          return sign * std::numeric_limits<float>::infinity();
        case 3:
        case 4: {
          const auto k = static_cast<float>(
              rng.next_u32() % static_cast<std::uint32_t>(q.max_code() + 1));
          return sign * (k + 0.5f) * step;
        }
        case 5:
          return sign * full * static_cast<float>(1.0 + 3.0 * rng.next_double());
        case 6:
          return sign * ((r & 0x20u) ? top + 0.5f : top + 1.0f) * step;
        default:
          return full * static_cast<float>(2.4 * rng.next_double() - 1.2);
      }
    };
    const float i = rail();
    s = dsp::Complex{i, rail()};
  }
  return x;
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

bool same_bits(dsp::Complex a, dsp::Complex b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Pin {
  int bits;
  bool unit_full_scale;
  std::uint64_t hash;
  dsp::Complex first;
  dsp::Complex last;
};

// clang-format off
const Pin kPins[] = {
    {2, true, 7571878693655061288ull,
     {0x1p+0f, 0x1p+0f}, {0x1p+0f, 0x1p+0f}},
    {2, false, 3870898487711388411ull,
     {0x1p-2f, 0x1p-2f}, {0x1p-2f, 0x1p-2f}},
    {8, true, 8896676982658438054ull,
     {0x1.3a74eap-1f, 0x1.cb972ep-2f}, {-0x1.72e5ccp-3f, -0x1.020408p+0f}},
    {8, false, 4097641344774332869ull,
     {0x1.38p+4f, 0x1.c8p+3f}, {-0x1.7p+2f, -0x1p+5f}},
    {13, true, 13090585611440723919ull,
     {0x1.fd1fd4p-2f, -0x1.9f79fap-1f}, {0x0p+0f, 0x0p+0f}},
    {13, false, 10215914630903927431ull,
     {0x1.fdp+8f, -0x1.9f6p+9f}, {0x0p+0f, 0x0p+0f}},
    {16, true, 13937050690708050275ull,
     {-0x1.3b1276p-3f, -0x1.ee43dcp-5f}, {0x1.feeffep-1f, -0x1.9b1736p-1f}},
    {16, false, 15672436727695150853ull,
     {-0x1.3b1p+10f, -0x1.ee4p+8f}, {0x1.feecp+12f, -0x1.9b14p+12f}},
    {24, true, 5041076646368227620ull,
     {0x1p+0f, 0x1.6f596ep-1f}, {0x1.40dd02p-2f, 0x0p+0f}},
    {24, false, 11538205805072017619ull,
     {0x1.fffffcp+20f, 0x1.6f596cp+20f}, {0x1.40ddp+19f, 0x0p+0f}},
};
// clang-format on

TEST(IqQuantizerPin, RoundtripInPlaceOnEdgeValueBlocks) {
  for (const Pin& pin : kPins) {
    const std::int32_t max_code = (std::int32_t{1} << (pin.bits - 1)) - 1;
    const IqQuantizer q{pin.bits, pin.unit_full_scale
                                      ? 1.0f
                                      : static_cast<float>(max_code) * 0.25f};
    dsp::Samples x = make_block(q, 0xADC0 + static_cast<unsigned>(pin.bits));
    q.roundtrip_in_place(x);
    ASSERT_EQ(x.size(), kBlock);
    EXPECT_EQ(fnv1a(x), pin.hash)
        << pin.bits << "/" << pin.unit_full_scale << ": " << fnv1a(x) << "ull";
    EXPECT_TRUE(same_bits(x.front(), pin.first))
        << pin.bits << "/" << pin.unit_full_scale << ": " << std::hexfloat
        << x.front();
    EXPECT_TRUE(same_bits(x.back(), pin.last))
        << pin.bits << "/" << pin.unit_full_scale << ": " << std::hexfloat
        << x.back();
  }
}

}  // namespace
}  // namespace tinysdr::radio
