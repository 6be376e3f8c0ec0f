// Byte pins of FftPlan::forward for N = 2^7 ... 2^12 (SF7 to SF12).
//
// The pinned values were recorded from the scalar radix-2 loop, which is
// the definition of the transform. Any faster path must reproduce them
// exactly: same FNV-1a hash of the output bytes, same first and last bin.
// The dense input sprinkles signed zeros among full-scale values; the
// sparse one is mostly signed zeros, so many outputs are exact zeros whose
// sign depends on every butterfly's operand order (re*1 - im*0 is not re
// when re is -0).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>

#include "common/rng.hpp"
#include "dsp/fft.hpp"

namespace tinysdr::dsp {
namespace {

/// A dense input has one rail in 16 a signed zero; a sparse one has one
/// rail in 16 nonzero.
Samples make_input(std::size_t n, std::uint64_t seed, bool sparse) {
  Rng rng{seed, 5};
  Samples x(n);
  for (auto& s : x) {
    auto rail = [&] {
      const std::uint32_t r = rng.next_u32();
      if (((r & 0xFu) == 0) != sparse) return (r & 0x10u) ? -0.0f : 0.0f;
      return static_cast<float>(static_cast<std::int32_t>(r >> 8) - 0x800000) /
             static_cast<float>(0x800000);
    };
    const float i = rail();
    s = Complex{i, rail()};
  }
  return x;
}

std::uint64_t fnv1a(const Samples& x) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(Complex); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

bool same_bits(Complex a, Complex b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Pin {
  std::size_t size;
  std::uint64_t hash;
  Complex first;
  Complex last;
};

void expect_pinned(const Samples& in, const Pin& pin) {
  Samples out = in;
  FftPlan{pin.size}.forward(out);
  ASSERT_EQ(out.size(), pin.size);
  EXPECT_EQ(fnv1a(out), pin.hash) << pin.size << ": " << fnv1a(out) << "ull";
  EXPECT_TRUE(same_bits(out.front(), pin.first))
      << pin.size << ": " << std::hexfloat << out.front();
  EXPECT_TRUE(same_bits(out.back(), pin.last))
      << pin.size << ": " << std::hexfloat << out.back();
}

// clang-format off
const Pin kDensePins[] = {
    {128, 8391647572012449556ull,
     {-0x1.d6b878p+3f, -0x1.998f76p+1f}, {0x1.fccb34p+1f, -0x1.23c7ap+3f}},
    {256, 16388574922488219703ull,
     {-0x1.6456dcp+3f, -0x1.4823a4p+2f}, {-0x1.1edafp+0f, -0x1.fc1c5ap+2f}},
    {512, 2400971333693745152ull,
     {-0x1.91bbbp+4f, -0x1.b73f7cp+2f}, {-0x1.768d86p+4f, 0x1.a7638ep+2f}},
    {1024, 9573686983106200399ull,
     {-0x1.fce1fcp+4f, -0x1.294a6cp+4f}, {0x1.d324fp+2f, 0x1.ceadp-4f}},
    {2048, 3580554604586689347ull,
     {-0x1.56b6aap+3f, -0x1.296f32p+4f}, {0x1.7cc3p+1f, -0x1.d29868p+5f}},
    {4096, 17466974728661289444ull,
     {-0x1.5e4582p+3f, -0x1.2b90cp+1f}, {-0x1.35403ep+5f, -0x1.68e9b8p+5f}},
};

const Pin kSparsePins[] = {
    {128, 17431148165957066420ull,
     {-0x1.822bep-2f, -0x1.2a8938p+1f}, {-0x1.cc80a8p-2f, -0x1.fcf84ep+0f}},
    {256, 2142373794875724849ull,
     {-0x1.795c58p+1f, -0x1.9d418cp+0f}, {-0x1.7bd654p-2f, 0x1.82a73cp+1f}},
    {512, 12235746027226224038ull,
     {-0x1.93fe8cp+1f, -0x1.ba133p+1f}, {0x1.a4d5e4p+1f, -0x1.300b6ep+2f}},
    {1024, 17975906435717881280ull,
     {-0x1.2bd034p+3f, -0x1.5a3974p+2f}, {0x1.d8c526p+1f, 0x1.df8a68p+1f}},
    {2048, 6206349693099272969ull,
     {-0x1.264b94p+3f, -0x1.13972ap+2f}, {0x1.249af4p+1f, -0x1.722f08p+3f}},
    {4096, 10879485894651697300ull,
     {-0x1.4365d6p+3f, -0x1.56aa76p+3f}, {0x1.3d97c8p+1f, -0x1.663b04p+3f}},
};
// clang-format on

TEST(FftPin, DenseInputWithSignedZeros) {
  for (const Pin& pin : kDensePins)
    expect_pinned(make_input(pin.size, 0xF0F7, false), pin);
}

TEST(FftPin, SparseInputOfSignedZeros) {
  for (const Pin& pin : kSparsePins)
    expect_pinned(make_input(pin.size, 0x5A55, true), pin);
}

}  // namespace
}  // namespace tinysdr::dsp
