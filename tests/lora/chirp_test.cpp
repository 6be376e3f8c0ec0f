#include "lora/chirp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/fft.hpp"

namespace tinysdr::lora {
namespace {

LoraParams sf8_125() { return LoraParams{8, Hertz::from_kilohertz(125.0)}; }

TEST(ChirpGenerator, RejectsNonIntegerOversampling) {
  EXPECT_THROW(ChirpGenerator(sf8_125(), Hertz::from_kilohertz(200.0)),
               std::invalid_argument);
}

TEST(ChirpGenerator, CriticalSamplingSymbolLength) {
  ChirpGenerator g{sf8_125(), Hertz::from_kilohertz(125.0)};
  EXPECT_EQ(g.oversampling(), 1u);
  EXPECT_EQ(g.samples_per_symbol(), 256u);
  EXPECT_EQ(g.symbol(0, ChirpDirection::kUp).size(), 256u);
}

TEST(ChirpGenerator, FourMhzRadioRateOversampling) {
  ChirpGenerator g{sf8_125(), Hertz::from_megahertz(4.0)};
  EXPECT_EQ(g.oversampling(), 32u);
  EXPECT_EQ(g.samples_per_symbol(), 256u * 32u);
}

TEST(ChirpGenerator, UnitEnvelope) {
  ChirpGenerator g{sf8_125(), Hertz::from_kilohertz(125.0)};
  auto sym = g.symbol(100, ChirpDirection::kUp);
  for (const auto& s : sym) EXPECT_NEAR(std::abs(s), 1.0f, 2e-3);
}

TEST(ChirpGenerator, RejectsOutOfRangeSymbol) {
  ChirpGenerator g{sf8_125(), Hertz::from_kilohertz(125.0)};
  EXPECT_THROW(g.symbol(256, ChirpDirection::kUp), std::invalid_argument);
}

TEST(ChirpGenerator, DechirpRecoversSymbolValue) {
  // The fundamental CSS property: multiply by conj(base upchirp), FFT,
  // peak lands exactly in bin = symbol value.
  ChirpGenerator g{sf8_125(), Hertz::from_kilohertz(125.0)};
  auto base = g.base_upchirp();
  dsp::FftPlan fft{256};
  for (std::uint32_t value : {0u, 1u, 8u, 100u, 128u, 200u, 255u}) {
    auto sym = g.symbol(value, ChirpDirection::kUp);
    dsp::Samples prod(256);
    for (std::size_t i = 0; i < 256; ++i)
      prod[i] = sym[i] * std::conj(base[i]);
    fft.forward(prod);
    EXPECT_EQ(dsp::peak_bin(prod), value) << "symbol " << value;
  }
}

TEST(ChirpGenerator, DownchirpIsConjugateOfUpchirp) {
  ChirpGenerator g{sf8_125(), Hertz::from_kilohertz(125.0)};
  auto up = g.symbol(37, ChirpDirection::kUp);
  auto down = g.symbol(37, ChirpDirection::kDown);
  for (std::size_t i = 0; i < up.size(); ++i) {
    EXPECT_NEAR(down[i].real(), up[i].real(), 1e-6);
    EXPECT_NEAR(down[i].imag(), -up[i].imag(), 1e-6);
  }
}

TEST(ChirpGenerator, UpAndDownChirpsQuasiOrthogonal) {
  // Dechirping a downchirp with the upchirp base spreads energy: peak must
  // be far below the matched case.
  ChirpGenerator g{sf8_125(), Hertz::from_kilohertz(125.0)};
  auto base = g.base_upchirp();
  dsp::FftPlan fft{256};

  auto peak_for = [&](const dsp::Samples& sym) {
    dsp::Samples prod(256);
    for (std::size_t i = 0; i < 256; ++i)
      prod[i] = sym[i] * std::conj(base[i]);
    fft.forward(prod);
    return std::abs(prod[dsp::peak_bin(prod)]);
  };
  double matched = peak_for(g.symbol(0, ChirpDirection::kUp));
  double crossed = peak_for(g.symbol(0, ChirpDirection::kDown));
  EXPECT_GT(matched / crossed, 8.0);
}

TEST(ChirpGenerator, CyclicShiftPropertySegmentWise) {
  // symbol(s) equals symbol(0) cyclically shifted by s samples within each
  // of the two frequency segments; the wrapped tail picks up a constant
  // (here exactly pi) phase from the discrete squared-phase accumulator.
  // The dechirp demodulator is insensitive to segment-constant phases, so
  // this is the correct invariant to pin down.
  ChirpGenerator g{sf8_125(), Hertz::from_kilohertz(125.0)};
  auto s0 = g.symbol(0, ChirpDirection::kUp);
  const std::uint32_t shift = 40;
  auto s40 = g.symbol(shift, ChirpDirection::kUp);
  const std::size_t n = 256;

  dsp::Complex head{0, 0}, tail{0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    dsp::Complex corr = s40[i] * std::conj(s0[(i + shift) % n]);
    if (i < n - shift)
      head += corr;
    else
      tail += corr;
  }
  EXPECT_NEAR(std::abs(head) / static_cast<double>(n - shift), 1.0, 0.01);
  EXPECT_NEAR(std::abs(tail) / static_cast<double>(shift), 1.0, 0.01);
  // And the documented anti-phase relation between the segments.
  double phase_diff = std::arg(head * std::conj(tail));
  EXPECT_NEAR(std::abs(phase_diff), 3.14159, 0.05);
}

TEST(ChirpGenerator, PartialSymbolLength) {
  ChirpGenerator g{sf8_125(), Hertz::from_kilohertz(125.0)};
  auto quarter = g.partial_symbol(0.25, ChirpDirection::kDown);
  EXPECT_EQ(quarter.size(), 64u);
  EXPECT_THROW(g.partial_symbol(0.0, ChirpDirection::kDown),
               std::invalid_argument);
  EXPECT_THROW(g.partial_symbol(1.5, ChirpDirection::kDown),
               std::invalid_argument);
}

class AllSfDechirp : public ::testing::TestWithParam<int> {};

TEST_P(AllSfDechirp, SymbolRecoveryAcrossSpreadingFactors) {
  // Paper: "the FPGA supports real-time modulation and demodulation of all
  // LoRa spreading factors from 6 to 12".
  int sf = GetParam();
  LoraParams p{sf, Hertz::from_kilohertz(125.0)};
  ChirpGenerator g{p, Hertz::from_kilohertz(125.0)};
  auto base = g.base_upchirp();
  const std::size_t n = p.chips();
  dsp::FftPlan fft{n};
  for (std::uint32_t value :
       {std::uint32_t{1}, static_cast<std::uint32_t>(n / 3),
        static_cast<std::uint32_t>(n - 1)}) {
    auto sym = g.symbol(value, ChirpDirection::kUp);
    dsp::Samples prod(n);
    for (std::size_t i = 0; i < n; ++i)
      prod[i] = sym[i] * std::conj(base[i]);
    fft.forward(prod);
    EXPECT_EQ(dsp::peak_bin(prod), value) << "SF" << sf;
  }
}

INSTANTIATE_TEST_SUITE_P(Sf6to12, AllSfDechirp, ::testing::Range(6, 13));

}  // namespace
}  // namespace tinysdr::lora
