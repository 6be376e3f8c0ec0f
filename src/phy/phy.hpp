// Unified PHY abstraction (paper §1/§4: one I/Q front end hosting many
// reprogrammable IoT PHYs).
//
// Every protocol the platform reproduces — LoRa CSS, BLE GFSK, 802.15.4
// O-QPSK, Sigfox UNB DBPSK, NB-IoT single-tone pi/2-BPSK — is exposed
// through the same two entry points: a PhyTx that turns payload bytes into
// a baseband waveform, and a PhyRx that turns a (noisy) waveform back into
// a FrameResult scored against the reference payload. The trial engines
// (phy::LinkSimulator, the flow blocks, the testbed campaigns) only ever
// see these interfaces, so a sixth PHY plugs in by writing one adapter and
// registering it — no harness changes.
//
// Both entry points are batch-oriented and span-based: modulate() appends
// to a caller-owned buffer (reused across trials, so the hot path performs
// no per-sample reallocation) and demodulate() reads a borrowed span.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "common/units.hpp"
#include "dsp/types.hpp"

namespace tinysdr::phy {

/// Protocol identifier — the registry key (paper §1's support list).
enum class Protocol : std::uint8_t {
  kLora = 0,
  kBle,
  kZigbee,
  kSigfox,
  kNbiot,
};

inline constexpr std::size_t kProtocolCount = 5;

[[nodiscard]] std::string_view protocol_name(Protocol p);

/// Outcome of one modulate → channel → demodulate trial, scored against
/// the transmitted reference. Frame/bit/symbol granularity so one result
/// type serves PER (Fig. 10), BER (Fig. 12) and SER (Fig. 11/15) curves;
/// PHYs that have no symbol notion leave the symbol fields zero.
struct FrameResult {
  bool frame_ok = false;
  std::uint64_t bits = 0;
  std::uint64_t bit_errors = 0;
  std::uint64_t symbols = 0;
  std::uint64_t symbol_errors = 0;

  [[nodiscard]] double ber() const {
    return bits == 0 ? 0.0
                     : static_cast<double>(bit_errors) /
                           static_cast<double>(bits);
  }
  [[nodiscard]] double ser() const {
    return symbols == 0 ? 0.0
                        : static_cast<double>(symbol_errors) /
                              static_cast<double>(symbols);
  }

  [[nodiscard]] bool operator==(const FrameResult&) const = default;
};

/// Transmit side: payload bytes -> baseband waveform.
class PhyTx {
 public:
  virtual ~PhyTx() = default;

  [[nodiscard]] virtual Protocol protocol() const = 0;
  [[nodiscard]] virtual Hertz sample_rate() const = 0;
  /// Largest payload modulate() accepts (trial engines clamp to this).
  [[nodiscard]] virtual std::size_t max_payload() const = 0;

  /// Append the waveform for `payload` to `out`. Appending (rather than
  /// returning a fresh vector) lets trial loops reuse one buffer.
  virtual void modulate(std::span<const std::uint8_t> payload,
                        dsp::Samples& out) const = 0;
};

/// Receive side: waveform -> error accounting against the reference.
class PhyRx {
 public:
  virtual ~PhyRx() = default;

  [[nodiscard]] virtual Protocol protocol() const = 0;
  [[nodiscard]] virtual Hertz sample_rate() const = 0;

  /// Demodulate `iq` (which carries the waveform some PhyTx produced for
  /// `reference`, possibly impaired) and score the outcome.
  [[nodiscard]] virtual FrameResult demodulate(
      std::span<const dsp::Complex> iq,
      std::span<const std::uint8_t> reference) const = 0;
};

/// Score a packet-granularity decode: hamming distance over the common
/// prefix, every missing/extra byte counted as 8 errored bits. `decoded_ok`
/// gates frame_ok on protocol-level success (CRC, header) beyond byte
/// equality.
[[nodiscard]] FrameResult score_packet(std::span<const std::uint8_t> reference,
                                       std::span<const std::uint8_t> decoded,
                                       bool decoded_ok);

/// Score a decode that produced nothing at all (sync never found): every
/// reference bit counts as an error.
[[nodiscard]] FrameResult score_lost_packet(
    std::span<const std::uint8_t> reference);

}  // namespace tinysdr::phy
