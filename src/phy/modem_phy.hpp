// Adapter for the framed-packet modems (Zigbee O-QPSK, Sigfox UNB DBPSK,
// NB-IoT single-tone pi/2-BPSK) in the unified PHY layer.
//
// Each of these modems frames a payload itself (preamble, sync, length,
// CRC) and either decodes a payload back or finds nothing, so one adapter
// pair serves them all: TX appends modem.modulate(payload), RX scores the
// decoded payload as a packet, or the whole reference as lost.
#pragma once

#include "phy/phy.hpp"

namespace tinysdr::phy {

template <class Modem, Protocol Id, std::size_t MaxPayload>
class ModemTx final : public PhyTx {
 public:
  [[nodiscard]] Protocol protocol() const override { return Id; }
  [[nodiscard]] Hertz sample_rate() const override {
    return modem_.config().sample_rate();
  }
  [[nodiscard]] std::size_t max_payload() const override {
    return MaxPayload;
  }
  void modulate(std::span<const std::uint8_t> payload,
                dsp::Samples& out) const override {
    auto wave = modem_.modulate(payload);
    out.insert(out.end(), wave.begin(), wave.end());
  }

 private:
  Modem modem_;
};

template <class Modem, Protocol Id>
class ModemRx final : public PhyRx {
 public:
  [[nodiscard]] Protocol protocol() const override { return Id; }
  [[nodiscard]] Hertz sample_rate() const override {
    return modem_.config().sample_rate();
  }
  [[nodiscard]] FrameResult demodulate(
      std::span<const dsp::Complex> iq,
      std::span<const std::uint8_t> reference) const override {
    auto decoded = modem_.demodulate(iq);
    if (!decoded) return score_lost_packet(reference);
    return score_packet(reference, *decoded, true);
  }

 private:
  Modem modem_;
};

}  // namespace tinysdr::phy
