// Byte pins of AwgnChannel::add_noise and noise_only on seeded inputs.
//
// The pinned values were recorded from the channel that drew every noise
// value with one scalar Rng::next_gaussian call. Any faster Gaussian path
// must reproduce them exactly: same FNV-1a hash of the output bytes, same
// first and last sample. The lengths straddle the 256-pair block of
// Rng::fill_gaussian; the primed cases start from an Rng that holds a
// cached Gaussian.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>

#include "channel/noise.hpp"
#include "common/rng.hpp"

namespace tinysdr::channel {
namespace {

const Hertz kFs = Hertz::from_kilohertz(500.0);

/// A full-scale random block with signed zeros sprinkled in, so the pins
/// also cover how each rail's addition treats -0.
dsp::Samples make_signal(std::size_t n, std::uint64_t seed) {
  Rng rng{seed, 3};
  dsp::Samples x(n);
  for (auto& s : x) {
    auto rail = [&] {
      const std::uint32_t r = rng.next_u32();
      if ((r & 0xFu) == 0) return (r & 0x10u) ? -0.0f : 0.0f;
      return static_cast<float>(static_cast<std::int32_t>(r >> 8) - 0x800000) /
             static_cast<float>(0x800000);
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
  std::uint64_t seed;
  double snr_db;
  std::size_t length;
  bool primed;
  std::uint64_t hash;
  dsp::Complex first;
  dsp::Complex last;
};

Rng channel_rng(std::uint64_t seed, bool primed) {
  Rng rng{seed, 11};
  if (primed) (void)rng.next_gaussian();
  return rng;
}

void expect_pinned(const dsp::Samples& out, const Pin& pin) {
  ASSERT_EQ(out.size(), pin.length);
  EXPECT_EQ(fnv1a(out), pin.hash);
  EXPECT_TRUE(same_bits(out.front(), pin.first))
      << std::hexfloat << out.front();
  EXPECT_TRUE(same_bits(out.back(), pin.last)) << std::hexfloat << out.back();
}

constexpr std::uint64_t kSeedA = 7;
constexpr std::uint64_t kSeedB = 0x5eed'cafe'f00dull;

// clang-format off
const Pin kAddNoisePins[] = {
    {kSeedA, -10, 1, false, 9435205753232327498ull,
     {0x1.11417cp+1f, 0x1.0c1e14p+1f}, {0x1.11417cp+1f, 0x1.0c1e14p+1f}},
    {kSeedA, -10, 3, false, 5140122361622241638ull,
     {0x1.11417cp+1f, 0x1.0c1e14p+1f}, {0x1.784e2cp-1f, -0x1.1c3db4p+2f}},
    {kSeedA, -10, 255, false, 3607554095002074514ull,
     {0x1.11417cp+1f, 0x1.0c1e14p+1f}, {-0x1.728b6cp-2f, 0x1.69e54cp+0f}},
    {kSeedA, -10, 256, false, 13173782003494979986ull,
     {0x1.11417cp+1f, 0x1.0c1e14p+1f}, {-0x1.416e2p+2f, 0x1.ae9c7p+1f}},
    {kSeedA, -10, 257, false, 15548478364239860528ull,
     {0x1.11417cp+1f, 0x1.0c1e14p+1f}, {-0x1.266dacp+1f, -0x1.4aeec6p-2f}},
    {kSeedA, -10, 9536, false, 18334736829578937733ull,
     {0x1.11417cp+1f, 0x1.0c1e14p+1f}, {-0x1.2ab51p+0f, 0x1.002afp+1f}},
    {kSeedA, 10, 1, false, 17050895964895699470ull,
     {0x1.b6a258p-1f, 0x1.49ff54p-1f}, {0x1.b6a258p-1f, 0x1.49ff54p-1f}},
    {kSeedA, 10, 3, false, 1735857127192926943ull,
     {0x1.b6a258p-1f, 0x1.49ff54p-1f}, {-0x1.3d547ap-4f, -0x1.5297d4p+0f}},
    {kSeedA, 10, 255, false, 17357085731744110065ull,
     {0x1.b6a258p-1f, 0x1.49ff54p-1f}, {-0x1.232b84p-3f, -0x1.0d35bap-2f}},
    {kSeedA, 10, 256, false, 862878664768173510ull,
     {0x1.b6a258p-1f, 0x1.49ff54p-1f}, {-0x1.1f8e98p+0f, 0x1.1acdacp-1f}},
    {kSeedA, 10, 257, false, 8267413099659213962ull,
     {0x1.b6a258p-1f, 0x1.49ff54p-1f}, {-0x1.e0a4aep-1f, -0x1.375f8ep-1f}},
    {kSeedA, 10, 9536, false, 3561636250823669063ull,
     {0x1.b6a258p-1f, 0x1.49ff54p-1f}, {0x1.5224c8p-2f, 0x1.815ca8p-4f}},
    {kSeedA, 40, 1, false, 539471232079846401ull,
     {0x1.70393ap-1f, 0x1.f437eap-2f}, {0x1.70393ap-1f, 0x1.f437eap-2f}},
    {kSeedA, 40, 3, false, 9581976544605491042ull,
     {0x1.70393ap-1f, 0x1.f437eap-2f}, {-0x1.51b1e8p-3f, -0x1.f9617ap-1f}},
    {kSeedA, 40, 255, false, 131263677501215739ull,
     {0x1.70393ap-1f, 0x1.f437eap-2f}, {-0x1.e58506p-4f, -0x1.c5eeb2p-2f}},
    {kSeedA, 40, 256, false, 12436544790775977589ull,
     {0x1.70393ap-1f, 0x1.f437eap-2f}, {-0x1.685072p-1f, 0x1.ff9b58p-3f}},
    {kSeedA, 40, 257, false, 16126694253299697946ull,
     {0x1.70393ap-1f, 0x1.f437eap-2f}, {-0x1.95a3eap-1f, -0x1.47128ep-1f}},
    {kSeedA, 40, 9536, false, 1501081052001294752ull,
     {0x1.70393ap-1f, 0x1.f437eap-2f}, {0x1.f71672p-2f, -0x1.c730aap-4f}},
    {kSeedB, -10, 1, false, 9439503963411192066ull,
     {-0x1.76816cp+0f, 0x1.d36604p-1f}, {-0x1.76816cp+0f, 0x1.d36604p-1f}},
    {kSeedB, -10, 3, false, 11140651552710229441ull,
     {-0x1.76816cp+0f, 0x1.d36604p-1f}, {-0x1.ffbae4p+0f, -0x1.638742p+0f}},
    {kSeedB, -10, 255, false, 15983557640319625663ull,
     {-0x1.76816cp+0f, 0x1.d36604p-1f}, {-0x1.383608p-1f, -0x1.57466cp+0f}},
    {kSeedB, -10, 256, false, 13622446006070508364ull,
     {-0x1.76816cp+0f, 0x1.d36604p-1f}, {-0x1.9acd66p+0f, 0x1.0e91c6p-3f}},
    {kSeedB, -10, 257, false, 3074038501019364597ull,
     {-0x1.76816cp+0f, 0x1.d36604p-1f}, {-0x1.4db4cep+1f, -0x1.3c2a66p+1f}},
    {kSeedB, -10, 9536, false, 13510087000073313642ull,
     {-0x1.76816cp+0f, 0x1.d36604p-1f}, {-0x1.082d7cp+1f, -0x1.77941cp-1f}},
    {kSeedB, 10, 1, false, 16051238794733898375ull,
     {-0x1.727718p-1f, 0x1.865132p-1f}, {-0x1.727718p-1f, 0x1.865132p-1f}},
    {kSeedB, 10, 3, false, 18266134484229975090ull,
     {-0x1.727718p-1f, 0x1.865132p-1f}, {-0x1.3102ccp-2f, -0x1.bcfebp-2f}},
    {kSeedB, 10, 255, false, 6471457387125285847ull,
     {-0x1.727718p-1f, 0x1.865132p-1f}, {-0x1.76793ap-1f, -0x1.90c116p-1f}},
    {kSeedB, 10, 256, false, 431191980484596076ull,
     {-0x1.727718p-1f, 0x1.865132p-1f}, {-0x1.eb3276p-1f, 0x1.c6151p-10f}},
    {kSeedB, 10, 257, false, 13147824871673321565ull,
     {-0x1.727718p-1f, 0x1.865132p-1f}, {-0x1.cba956p-1f, -0x1.4173c8p-1f}},
    {kSeedB, 10, 9536, false, 10509637275018063755ull,
     {-0x1.727718p-1f, 0x1.865132p-1f}, {0x1.e52242p-2f, 0x1.3f91ep-1f}},
    {kSeedB, 40, 1, false, 5030625092473312521ull,
     {-0x1.49bc1p-1f, 0x1.7e05fep-1f}, {-0x1.49bc1p-1f, 0x1.7e05fep-1f}},
    {kSeedB, 40, 3, false, 1176570913074203447ull,
     {-0x1.49bc1p-1f, 0x1.7e05fep-1f}, {-0x1.d657f6p-4f, -0x1.53dc02p-2f}},
    {kSeedB, 40, 255, false, 9237552336470055705ull,
     {-0x1.49bc1p-1f, 0x1.7e05fep-1f}, {-0x1.7d2c3ep-1f, -0x1.7200dap-1f}},
    {kSeedB, 40, 256, false, 10652394137325809217ull,
     {-0x1.49bc1p-1f, 0x1.7e05fep-1f}, {-0x1.c7a566p-1f, -0x1.92ef0ep-7f}},
    {kSeedB, 40, 257, false, 16450385392214426034ull,
     {-0x1.49bc1p-1f, 0x1.7e05fep-1f}, {-0x1.6d7fp-1f, -0x1.b7ee32p-2f}},
    {kSeedB, 40, 9536, false, 9124815550481691602ull,
     {-0x1.49bc1p-1f, 0x1.7e05fep-1f}, {0x1.7e5dacp-1f, 0x1.8a5db4p-1f}},
    {kSeedA, 10, 1, true, 10997844288513255430ull,
     {0x1.c06bd4p-1f, 0x1.0c0e52p-1f}, {0x1.c06bd4p-1f, 0x1.0c0e52p-1f}},
    {kSeedA, 10, 256, true, 16017757018273856908ull,
     {0x1.c06bd4p-1f, 0x1.0c0e52p-1f}, {-0x1.82adf8p-2f, 0x1.6b20ecp-4f}},
    {kSeedA, 10, 257, true, 6349552659060036247ull,
     {0x1.c06bd4p-1f, 0x1.0c0e52p-1f}, {-0x1.82faaap-1f, -0x1.21fb6ep+0f}},
    {kSeedB, 10, 1, true, 17648369601901318400ull,
     {-0x1.3fd706p-1f, 0x1.043d3p+0f}, {-0x1.3fd706p-1f, 0x1.043d3p+0f}},
    {kSeedB, 10, 256, true, 7907198652191555081ull,
     {-0x1.3fd706p-1f, 0x1.043d3p+0f}, {-0x1.bf1162p-1f, -0x1.9f154ap-3f}},
    {kSeedB, 10, 257, true, 12420759014319996595ull,
     {-0x1.3fd706p-1f, 0x1.043d3p+0f}, {-0x1.d338e4p-1f, -0x1.ff3832p-2f}},
};

const Pin kNoiseOnlyPins[] = {
    {kSeedA, 6, 1, false, 3055310420915087508ull,
     {0x1.ccf31ep-3f, 0x1.057f68p-2f}, {0x1.ccf31ep-3f, 0x1.057f68p-2f}},
    {kSeedA, 6, 1, true, 12414034590347098699ull,
     {0x1.057f68p-2f, 0x1.04a054p-4f}, {0x1.057f68p-2f, 0x1.04a054p-4f}},
    {kSeedA, 6, 300, false, 13000332074390088003ull,
     {0x1.ccf31ep-3f, 0x1.057f68p-2f}, {-0x1.4fca9cp-3f, 0x1.c767ecp-7f}},
    {kSeedA, 6, 300, true, 1102683960621835336ull,
     {0x1.057f68p-2f, 0x1.04a054p-4f}, {0x1.c767ecp-7f, -0x1.19c75ap-5f}},
    {kSeedA, 6, 9536, false, 179612364171638343ull,
     {0x1.ccf31ep-3f, 0x1.057f68p-2f}, {-0x1.0df492p-2f, 0x1.57ec0cp-2f}},
    {kSeedA, 6, 9536, true, 3858031093247613987ull,
     {0x1.057f68p-2f, 0x1.04a054p-4f}, {0x1.57ec0cp-2f, 0x1.1f4466p-3f}},
    {kSeedB, 6, 1, false, 15568605025236345553ull,
     {-0x1.0aa586p-3f, 0x1.b25deap-6f}, {-0x1.0aa586p-3f, 0x1.b25deap-6f}},
    {kSeedB, 6, 1, true, 7627612048497614056ull,
     {0x1.b25deap-6f, 0x1.b7baeap-2f}, {0x1.b25deap-6f, 0x1.b7baeap-2f}},
    {kSeedB, 6, 300, false, 6158624048141709312ull,
     {-0x1.0aa586p-3f, 0x1.b25deap-6f}, {0x1.a05922p-3f, -0x1.398bd2p+0f}},
    {kSeedB, 6, 300, true, 12465340798200720785ull,
     {0x1.b25deap-6f, 0x1.b7baeap-2f}, {-0x1.398bd2p+0f, 0x1.735f5ap-2f}},
    {kSeedB, 6, 9536, false, 13169825942564911309ull,
     {-0x1.0aa586p-3f, 0x1.b25deap-6f}, {-0x1.c99a88p-2f, -0x1.e9a91p-3f}},
    {kSeedB, 6, 9536, true, 3884395361780249505ull,
     {0x1.b25deap-6f, 0x1.b7baeap-2f}, {-0x1.e9a91p-3f, 0x1.4ed7a4p-3f}},
};
// clang-format on

TEST(AwgnPins, AddNoise) {
  for (const Pin& pin : kAddNoisePins) {
    SCOPED_TRACE(testing::Message() << "seed " << pin.seed << " snr "
                                    << pin.snr_db << " length " << pin.length
                                    << (pin.primed ? " primed" : ""));
    AwgnChannel chan{kFs, 6.0, channel_rng(pin.seed, pin.primed)};
    dsp::Samples x = make_signal(pin.length, pin.seed);
    chan.add_noise(x, pin.snr_db);
    expect_pinned(x, pin);
  }
}

TEST(AwgnPins, NoiseOnly) {
  for (const Pin& pin : kNoiseOnlyPins) {
    SCOPED_TRACE(testing::Message() << "seed " << pin.seed << " length "
                                    << pin.length);
    AwgnChannel chan{kFs, 6.0, channel_rng(pin.seed, pin.primed)};
    expect_pinned(chan.noise_only(pin.length, chan.floor() + pin.snr_db), pin);
  }
}

}  // namespace
}  // namespace tinysdr::channel
