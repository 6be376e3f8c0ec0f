// Pins of the LoRa receiver's synchronisation and decode outputs on seeded
// SF8 and SF12 captures, plus a bound on the FFTs one clean packet costs.
//
// The pinned values were recorded from the receiver that dechirped every
// window of the capture before looking for the preamble, and that
// dechirped the SFD window three times. The lazy scan and the single SFD
// dechirp pair must reproduce them exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "channel/noise.hpp"
#include "common/rng.hpp"
#include "impair/impair.hpp"
#include "lora/chirp.hpp"
#include "lora/demodulator.hpp"
#include "lora/packet.hpp"
#include "obs/metrics.hpp"

namespace tinysdr::lora {
namespace {

enum class Kind { kClean, kKnee, kNoiseOnly, kTruncatedBeforeSfd, kSfdUpchirp };

struct Capture {
  LoraParams params;
  std::vector<std::uint8_t> payload;
  std::size_t lead = 0;  ///< silent samples before the preamble
  dsp::Samples iq;
};

Hertz bw125() { return Hertz::from_kilohertz(125.0); }

/// Knee RSSI per SF (NF 6 dB, critical rate): the preamble still
/// synchronises, and at SF8 the payload CRC fails.
double knee_dbm(int sf) { return sf == 8 ? -128.0 : -138.0; }

/// Preamble + sync word, then (unless `stop_before_sfd`) a 2.25-symbol SFD
/// of `sfd` chirps and the encoded payload symbols.
dsp::Samples packet_waveform(const LoraParams& p,
                             std::span<const std::uint8_t> payload,
                             ChirpDirection sfd, bool stop_before_sfd) {
  ChirpGenerator chirps{p, bw125()};
  dsp::Samples out;
  auto append = [&out](const dsp::Samples& s) {
    out.insert(out.end(), s.begin(), s.end());
  };
  for (int i = 0; i < p.preamble_symbols; ++i)
    append(chirps.symbol(0, ChirpDirection::kUp));
  for (std::uint32_t sync : {kSyncSymbol1, kSyncSymbol2})
    append(chirps.symbol(sync & (p.chips() - 1), ChirpDirection::kUp));
  if (stop_before_sfd) return out;
  append(chirps.symbol(0, sfd));
  append(chirps.symbol(0, sfd));
  append(chirps.partial_symbol(0.25, sfd));
  for (std::uint32_t s : PacketCodec{p}.encode(payload).symbols)
    append(chirps.symbol(s, ChirpDirection::kUp));
  return out;
}

Capture make_capture(int sf, Kind kind) {
  const std::uint64_t seed = 0xC0FFEEu + static_cast<std::uint64_t>(sf);
  Capture c{LoraParams{sf, bw125()}, {}, 0, {}};
  Rng rng{seed};
  c.payload.resize(16);
  for (auto& b : c.payload) b = rng.next_byte();
  const std::size_t n = c.params.chips();
  // A lead that is not a whole number of symbols gives a non-zero tau.
  c.lead = n + n / 3 + rng.next_below(static_cast<std::uint32_t>(n / 2));

  dsp::Samples wave = packet_waveform(
      c.params, c.payload,
      kind == Kind::kSfdUpchirp ? ChirpDirection::kUp : ChirpDirection::kDown,
      kind == Kind::kTruncatedBeforeSfd);
  c.iq.assign(c.lead, dsp::Complex{0.0f, 0.0f});
  c.iq.insert(c.iq.end(), wave.begin(), wave.end());
  if (kind != Kind::kTruncatedBeforeSfd)
    c.iq.insert(c.iq.end(), n, dsp::Complex{0.0f, 0.0f});

  channel::AwgnChannel chan{bw125(), 6.0, Rng{seed, 1}};
  if (kind == Kind::kKnee) {
    // 0.7 bins of CFO so the SFD's CFO estimate is non-zero.
    impair::ImpairState cfo_state;
    impair::CfoDrift{0.7 / static_cast<double>(n)}.apply(c.iq, cfo_state);
    c.iq = chan.apply(c.iq, Dbm{knee_dbm(sf)});
  }
  if (kind == Kind::kNoiseOnly)
    c.iq = chan.noise_only(c.iq.size(), chan.floor() + 0.0);
  return c;
}

struct Pin {
  std::size_t payload_start;
  std::uint32_t timing_offset;
  double cfo_bins;
  double peak_snr_db;
  bool crc_valid;
  /// Decoded bytes; empty means "the transmitted payload".
  std::vector<std::uint8_t> payload;
};

/// Checks synchronize() on the conditioned capture and receive() on the
/// raw one against `pin` (nullopt: no packet found by either).
void expect_pinned(int sf, Kind kind, const std::optional<Pin>& pin) {
  const Capture c = make_capture(sf, kind);
  const Demodulator demod{c.params, bw125()};
  const auto sync = demod.synchronize(demod.condition(c.iq));
  const auto rx = demod.receive(c.iq);
  if (!pin) {
    EXPECT_FALSE(sync.has_value());
    EXPECT_FALSE(rx.has_value());
    return;
  }
  ASSERT_TRUE(sync.has_value());
  EXPECT_EQ(sync->payload_start, pin->payload_start);
  EXPECT_EQ(sync->timing_offset, pin->timing_offset);
  EXPECT_DOUBLE_EQ(sync->cfo_bins, pin->cfo_bins);
  EXPECT_DOUBLE_EQ(sync->peak_snr_db, pin->peak_snr_db);

  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(rx->payload_start, pin->payload_start);
  EXPECT_EQ(rx->timing_offset, pin->timing_offset);
  EXPECT_DOUBLE_EQ(rx->preamble_peak_snr_db, pin->peak_snr_db);
  EXPECT_TRUE(rx->packet.header_valid);
  EXPECT_EQ(rx->packet.crc_valid, pin->crc_valid);
  EXPECT_EQ(rx->packet.payload,
            pin->payload.empty() ? c.payload : pin->payload);
}

TEST(ReceiverPins, Sf8Clean) {
  expect_pinned(8, Kind::kClean,
                Pin{4100, 60, 0.0, 0x1.632e702d53221p+7, true, {}});
}

TEST(ReceiverPins, Sf8Knee) {
  // Bytes 12-14 come back corrupted (0x29, 0x0C, 0xEA were sent).
  expect_pinned(8, Kind::kKnee,
                Pin{4099, 61, 1.0, 0x1.bd2ef5920e3b5p+3, false,
                    {0x73, 0xA6, 0x41, 0x9B, 0x73, 0x03, 0x1D, 0x9C, 0x6C,
                     0xCF, 0xC8, 0xD2, 0x69, 0x08, 0xAE, 0x57}});
}

TEST(ReceiverPins, Sf8NoiseOnly) {
  expect_pinned(8, Kind::kNoiseOnly, std::nullopt);
}

TEST(ReceiverPins, Sf8TruncatedBeforeSfd) {
  expect_pinned(8, Kind::kTruncatedBeforeSfd, std::nullopt);
}

TEST(ReceiverPins, Sf8SfdReplacedByUpchirp) {
  expect_pinned(8, Kind::kSfdUpchirp, std::nullopt);
}

TEST(ReceiverPins, Sf12Clean) {
  expect_pinned(12, Kind::kClean,
                Pin{63844, 2716, 0.0, 0x1.743f486e56098p+8, true, {}});
}

TEST(ReceiverPins, Sf12Knee) {
  expect_pinned(12, Kind::kKnee,
                Pin{63844, 2716, 0.5, 0x1.ecb37352a76eep+3, true, {}});
}

TEST(ReceiverPins, Sf12NoiseOnly) {
  expect_pinned(12, Kind::kNoiseOnly, std::nullopt);
}

TEST(ReceiverPins, Sf12TruncatedBeforeSfd) {
  expect_pinned(12, Kind::kTruncatedBeforeSfd, std::nullopt);
}

TEST(ReceiverPins, Sf12SfdReplacedByUpchirp) {
  expect_pinned(12, Kind::kSfdUpchirp, std::nullopt);
}

TEST(ReceiverPins, CleanPacketFftCountIsBounded) {
  // One receive() may FFT: the scan windows up to the end of the first
  // preamble run, the aligned walk (remaining preamble, the window that
  // ends it, the second sync symbol, one SFD up/down pair) and the payload
  // windows. Scanning the whole capture first costs about twice that.
  const Capture c = make_capture(8, Kind::kClean);
  const Demodulator demod{c.params, bw125()};
  const std::size_t n = c.params.chips();
  const auto preamble = static_cast<std::size_t>(c.params.preamble_symbols);
  const std::size_t needed_run = std::max<std::size_t>(4, preamble - 4);

  obs::Registry registry;
  std::optional<DemodResult> rx;
  {
    obs::MetricsSession session{registry};
    rx = demod.receive(c.iq);
  }
  ASSERT_TRUE(rx.has_value());
  ASSERT_TRUE(rx->packet.crc_valid);

  const std::size_t scanned = (c.lead + n - 1) / n + needed_run;
  const std::size_t walk = preamble + 1 + 1 + 2;
  const std::size_t payload_windows = (c.iq.size() - rx->payload_start) / n;
  const std::uint64_t ffts = registry.histograms().at("prof.fft.us").count();
  EXPECT_LE(ffts, scanned + walk + payload_windows);
}

}  // namespace
}  // namespace tinysdr::lora
