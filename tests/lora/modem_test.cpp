#include <gtest/gtest.h>

#include <algorithm>

#include "channel/noise.hpp"
#include "common/rng.hpp"
#include "impair/impair.hpp"
#include "lora/demodulator.hpp"
#include "lora/modulator.hpp"
#include "lora/sx1276.hpp"

namespace tinysdr::lora {
namespace {

LoraParams sf8_125() { return LoraParams{8, Hertz::from_kilohertz(125.0)}; }
Hertz bw125() { return Hertz::from_kilohertz(125.0); }

std::vector<std::uint8_t> payload_bytes() { return {0xDE, 0xAD, 0x42}; }

TEST(Modulator, WaveformLengthMatchesPrediction) {
  Modulator mod{sf8_125(), bw125()};
  auto wave = mod.modulate(payload_bytes());
  EXPECT_EQ(wave.size(), mod.packet_samples(payload_bytes().size()));
}

TEST(Modulator, PreambleSectionLength) {
  Modulator mod{sf8_125(), bw125()};
  auto pre = mod.preamble_waveform();
  // 10 preamble + 2 sync + 2.25 SFD symbols of 256 samples.
  EXPECT_EQ(pre.size(), (10u + 2u) * 256u + 256u * 9u / 4u);
}

TEST(Modulator, CachedPreambleEqualsFreshSynthesis) {
  for (double bw_khz : {125.0, 250.0}) {
    for (int sf = 7; sf <= 12; ++sf) {
      LoraParams p{sf, Hertz::from_kilohertz(bw_khz)};
      Modulator mod{p, p.bandwidth};
      const ChirpGenerator& g = mod.chirps();
      dsp::Samples fresh;
      auto append = [&fresh](const dsp::Samples& s) {
        fresh.insert(fresh.end(), s.begin(), s.end());
      };
      for (int i = 0; i < p.preamble_symbols; ++i)
        append(g.symbol(0, ChirpDirection::kUp));
      append(g.symbol(kSyncSymbol1 & (p.chips() - 1), ChirpDirection::kUp));
      append(g.symbol(kSyncSymbol2 & (p.chips() - 1), ChirpDirection::kUp));
      append(g.symbol(0, ChirpDirection::kDown));
      append(g.symbol(0, ChirpDirection::kDown));
      append(g.partial_symbol(0.25, ChirpDirection::kDown));
      EXPECT_EQ(mod.preamble_waveform(), fresh) << "SF" << sf << " BW" << bw_khz;

      // Every packet starts with it, and the appending overload writes the
      // same samples after whatever the buffer already holds.
      auto wave = mod.modulate(payload_bytes());
      ASSERT_GE(wave.size(), fresh.size());
      EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(), wave.begin()));
      dsp::Samples appended(3, dsp::Complex{1.0f, -1.0f});
      mod.modulate(payload_bytes(), appended);
      ASSERT_EQ(appended.size(), wave.size() + 3);
      EXPECT_TRUE(std::equal(wave.begin(), wave.end(), appended.begin() + 3));
    }
  }
}

TEST(Modulator, UnitPowerWaveform) {
  Modulator mod{sf8_125(), bw125()};
  auto wave = mod.modulate(payload_bytes());
  EXPECT_NEAR(dsp::mean_power(wave), 1.0, 0.01);
}

TEST(Demodulator, CleanLoopback) {
  Modulator mod{sf8_125(), bw125()};
  Demodulator demod{sf8_125(), bw125()};
  auto wave = mod.modulate(payload_bytes());
  // Pad with silence on both sides as a real capture would have.
  dsp::Samples padded(512, dsp::Complex{0, 0});
  padded.insert(padded.end(), wave.begin(), wave.end());
  padded.insert(padded.end(), 512, dsp::Complex{0, 0});

  auto result = demod.receive(padded);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->packet.header_valid);
  EXPECT_TRUE(result->packet.crc_valid);
  EXPECT_EQ(result->packet.payload, payload_bytes());
}

TEST(Demodulator, LoopbackWithArbitraryOffset) {
  Modulator mod{sf8_125(), bw125()};
  Demodulator demod{sf8_125(), bw125()};
  auto wave = mod.modulate(payload_bytes());
  for (std::size_t offset : {1ul, 100ul, 255ul, 300ul}) {
    dsp::Samples padded(offset, dsp::Complex{0, 0});
    padded.insert(padded.end(), wave.begin(), wave.end());
    padded.insert(padded.end(), 300, dsp::Complex{0, 0});
    auto result = demod.receive(padded);
    ASSERT_TRUE(result.has_value()) << "offset " << offset;
    EXPECT_EQ(result->packet.payload, payload_bytes()) << "offset " << offset;
  }
}

TEST(Demodulator, OversampledPathWithFirFrontEnd) {
  // TX at 8x the bandwidth (radio-style oversampling); the demodulator's
  // FIR + decimation front end must recover the packet. CR4/8 so the
  // occasional +-1 bin error from FIR band-edge droop is corrected, as in
  // a real deployment.
  Hertz fs = Hertz::from_kilohertz(1000.0);
  LoraParams p = sf8_125();
  p.cr = CodingRate::kCr48;
  Modulator mod{p, fs};
  Demodulator demod{p, fs};
  auto wave = mod.modulate(payload_bytes());
  dsp::Samples padded(777, dsp::Complex{0, 0});
  padded.insert(padded.end(), wave.begin(), wave.end());
  padded.insert(padded.end(), 2048, dsp::Complex{0, 0});
  auto result = demod.receive(padded);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->packet.payload, payload_bytes());
}

TEST(Demodulator, NoPacketInPureNoise) {
  Demodulator demod{sf8_125(), bw125()};
  Rng rng{55};
  channel::AwgnChannel chan{bw125(), 6.0, rng};
  auto noise = chan.noise_only(20000, chan.floor() + 0.0);
  EXPECT_FALSE(demod.receive(noise).has_value());
}

TEST(Demodulator, DecodesAtModerateNoise) {
  Modulator mod{sf8_125(), bw125()};
  Demodulator demod{sf8_125(), bw125()};
  Rng rng{77};
  channel::AwgnChannel chan{bw125(), 6.0, rng};
  auto wave = mod.modulate(payload_bytes());
  dsp::Samples padded(400, dsp::Complex{0, 0});
  padded.insert(padded.end(), wave.begin(), wave.end());
  padded.insert(padded.end(), 400, dsp::Complex{0, 0});
  // -115 dBm is ~11 dB above the SF8/BW125 sensitivity: must decode.
  auto noisy = chan.apply(padded, Dbm{-115.0});
  auto result = demod.receive(noisy);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->packet.crc_valid);
  EXPECT_EQ(result->packet.payload, payload_bytes());
}

TEST(Demodulator, FailsFarBelowSensitivity) {
  Modulator mod{sf8_125(), bw125()};
  Demodulator demod{sf8_125(), bw125()};
  Rng rng{99};
  channel::AwgnChannel chan{bw125(), 6.0, rng};
  auto wave = mod.modulate(payload_bytes());
  auto noisy = chan.apply(wave, Dbm{-140.0});  // 14 dB below sensitivity
  auto result = demod.receive(noisy);
  if (result) {
    EXPECT_FALSE(result->packet.crc_valid);
  }
}

TEST(Demodulator, SmallCfoTolerated) {
  Modulator mod{sf8_125(), bw125()};
  Demodulator demod{sf8_125(), bw125()};
  auto wave = mod.modulate(payload_bytes());
  // CFO of half an FFT bin (0.5/256 cycles/sample at critical rate).
  impair::ImpairState cfo_state;
  impair::CfoDrift{0.4 / 256.0}.apply(wave, cfo_state);
  dsp::Samples padded(300, dsp::Complex{0, 0});
  padded.insert(padded.end(), wave.begin(), wave.end());
  padded.insert(padded.end(), 300, dsp::Complex{0, 0});
  auto result = demod.receive(padded);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->packet.payload, payload_bytes());
}

TEST(Demodulator, AlignedSymbolDemodExact) {
  // Raw symbol pipeline used by the Fig. 11 evaluation.
  LoraParams p = sf8_125();
  Modulator mod{p, bw125()};
  Demodulator demod{p, bw125()};
  Rng rng{11};
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 50; ++i) symbols.push_back(rng.next_below(256));
  auto wave = mod.modulate_symbols(symbols);
  auto cond = demod.condition(wave);
  // Payload starts after preamble(10) + sync(2) + SFD(2.25) symbols, minus
  // the FIR group delay already handled by condition().
  std::size_t start = (12u * 256u) + (256u * 9u / 4u);
  auto rx = demod.demodulate_aligned(cond, start, symbols.size());
  ASSERT_EQ(rx.size(), symbols.size());
  EXPECT_EQ(rx, symbols);
}

TEST(Sx1276, SensitivityTableLookup) {
  Sx1276Model chip{sf8_125()};
  EXPECT_NEAR(chip.sensitivity().value(), -126.0, 0.3);
}

}  // namespace
}  // namespace tinysdr::lora
