// The protocol registry: all five reproduced PHYs are reachable through
// it, each entry's factories build a matching TX/RX pair whose waveform
// bytes are pinned, and the registration rules hold.
#include "phy/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace tinysdr::phy {
namespace {

TEST(Registry, BuiltinCarriesAllFiveProtocols) {
  const Registry& r = Registry::builtin();
  ASSERT_EQ(r.size(), kProtocolCount);
  for (Protocol p : {Protocol::kLora, Protocol::kBle, Protocol::kZigbee,
                     Protocol::kSigfox, Protocol::kNbiot}) {
    const RegisteredPhy* e = r.find(p);
    ASSERT_NE(e, nullptr) << protocol_name(p);
    EXPECT_EQ(e->name, protocol_name(p));
    EXPECT_GT(e->max_payload, 0u);
    EXPECT_GT(e->system_noise_figure_db, 0.0);
  }
}

TEST(Registry, FactoriesBuildMatchingPairs) {
  for (const auto& entry : Registry::builtin().entries()) {
    auto tx = entry.make_tx();
    auto rx = entry.make_rx();
    ASSERT_NE(tx, nullptr);
    ASSERT_NE(rx, nullptr);
    EXPECT_EQ(tx->protocol(), entry.id);
    EXPECT_EQ(rx->protocol(), entry.id);
    EXPECT_EQ(tx->max_payload(), entry.max_payload);
    EXPECT_EQ(tx->sample_rate().value(), rx->sample_rate().value());
    EXPECT_GT(tx->sample_rate().value(), 0.0);
  }
}

TEST(Registry, NoiselessLoopbackDeliversEveryProtocol) {
  const std::vector<std::uint8_t> payload{0x54, 0x69, 0x6E, 0x79};
  for (const auto& entry : Registry::builtin().entries()) {
    auto tx = entry.make_tx();
    auto rx = entry.make_rx();
    dsp::Samples wave(entry.pad_samples, dsp::Complex{0.0f, 0.0f});
    tx->modulate(payload, wave);
    wave.insert(wave.end(), entry.pad_samples, dsp::Complex{0.0f, 0.0f});
    FrameResult r = rx->demodulate(wave, payload);
    EXPECT_TRUE(r.frame_ok) << entry.name;
    EXPECT_EQ(r.bit_errors, 0u) << entry.name;
  }
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

// The exact TX waveform of every built-in PHY for one fixed payload. The
// golden vectors pin only error counts, so these hashes are what holds
// each modulator's output bytes still across adapter refactors.
TEST(Registry, WaveformBytesArePinned) {
  struct Pin {
    Protocol id;
    std::size_t samples;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {Protocol::kLora, 8256, 14147902121251823689ull},
      {Protocol::kBle, 640, 15622540726547255326ull},
      {Protocol::kZigbee, 1540, 6325371610117339253ull},
      {Protocol::kSigfox, 712, 13477693832577846846ull},
      {Protocol::kNbiot, 576, 14298746707578588389ull},
  };
  const std::vector<std::uint8_t> payload{0x54, 0x69, 0x6E, 0x79};
  ASSERT_EQ(std::size(pins), Registry::builtin().size());
  for (const Pin& pin : pins) {
    dsp::Samples wave;
    Registry::builtin().at(pin.id).make_tx()->modulate(payload, wave);
    EXPECT_EQ(wave.size(), pin.samples) << protocol_name(pin.id);
    EXPECT_EQ(fnv1a(wave), pin.hash) << protocol_name(pin.id);
  }
}

TEST(Registry, DuplicateIdThrows) {
  Registry r;
  const auto& lora = Registry::builtin().at(Protocol::kLora);
  r.add(lora);
  EXPECT_THROW(r.add(lora), std::invalid_argument);
  EXPECT_THROW((void)r.at(Protocol::kBle), std::out_of_range);
  EXPECT_EQ(r.find(Protocol::kBle), nullptr);
}

}  // namespace
}  // namespace tinysdr::phy
