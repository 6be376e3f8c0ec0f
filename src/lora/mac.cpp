#include "lora/mac.hpp"

#include <stdexcept>

#include "common/aes.hpp"

namespace tinysdr::lora {

namespace {

void push_u32(std::vector<std::uint8_t>& v, std::uint32_t x) {
  v.push_back(static_cast<std::uint8_t>(x & 0xFF));
  v.push_back(static_cast<std::uint8_t>((x >> 8) & 0xFF));
  v.push_back(static_cast<std::uint8_t>((x >> 16) & 0xFF));
  v.push_back(static_cast<std::uint8_t>((x >> 24) & 0xFF));
}

std::uint32_t read_u32(std::span<const std::uint8_t> v, std::size_t at) {
  return static_cast<std::uint32_t>(v[at]) |
         (static_cast<std::uint32_t>(v[at + 1]) << 8) |
         (static_cast<std::uint32_t>(v[at + 2]) << 16) |
         (static_cast<std::uint32_t>(v[at + 3]) << 24);
}

}  // namespace

std::uint32_t compute_mic(std::span<const std::uint8_t> frame,
                          const AppKey& key) {
  // Real AES-CMAC, as LoRaWAN specifies (truncated to 32 bits).
  AesCmac cmac{key};
  return cmac.mic(frame);
}

std::vector<std::uint8_t> MacFrame::serialize() const {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(type));
  push_u32(out, dev_addr);
  out.push_back(fctrl);
  out.push_back(static_cast<std::uint8_t>(fcnt & 0xFF));
  out.push_back(static_cast<std::uint8_t>(fcnt >> 8));
  out.push_back(fport);
  out.insert(out.end(), payload.begin(), payload.end());
  push_u32(out, mic);
  return out;
}

std::optional<MacFrame> MacFrame::parse(std::span<const std::uint8_t> bytes) {
  // MHDR(1) + DevAddr(4) + FCtrl(1) + FCnt(2) + FPort(1) + MIC(4) = 13 min.
  if (bytes.size() < 13) return std::nullopt;
  MacFrame f;
  f.type = static_cast<MacMessageType>(bytes[0] & 0xE0);
  f.dev_addr = read_u32(bytes, 1);
  f.fctrl = bytes[5];
  f.fcnt = static_cast<std::uint16_t>(bytes[6] | (bytes[7] << 8));
  f.fport = bytes[8];
  f.payload.assign(bytes.begin() + 9, bytes.end() - 4);
  f.mic = read_u32(bytes, bytes.size() - 4);
  return f;
}

MacDevice MacDevice::otaa(std::uint64_t dev_eui, AppKey app_key) {
  MacDevice d;
  d.dev_eui_ = dev_eui;
  d.key_ = app_key;
  return d;
}

std::vector<std::uint8_t> MacDevice::join_request() {
  ++dev_nonce_;
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(MacMessageType::kJoinRequest));
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((dev_eui_ >> (8 * i)) & 0xFF));
  out.push_back(static_cast<std::uint8_t>(dev_nonce_ & 0xFF));
  out.push_back(static_cast<std::uint8_t>(dev_nonce_ >> 8));
  std::uint32_t mic = compute_mic(out, key_);
  push_u32(out, mic);
  return out;
}

bool MacDevice::handle_join_accept(std::span<const std::uint8_t> frame) {
  // MHDR(1) + DevAddr(4) + MIC(4).
  if (frame.size() != 9) return false;
  if (static_cast<MacMessageType>(frame[0] & 0xE0) !=
      MacMessageType::kJoinAccept)
    return false;
  std::uint32_t mic = read_u32(frame, 5);
  std::vector<std::uint8_t> body(frame.begin(), frame.begin() + 5);
  if (compute_mic(body, key_) != mic) return false;
  dev_addr_ = read_u32(frame, 1);
  joined_ = true;
  fcnt_up_ = 0;
  return true;
}

std::vector<std::uint8_t> MacDevice::uplink(
    std::span<const std::uint8_t> payload, std::uint8_t fport,
    bool confirmed) {
  if (!joined_) throw std::logic_error("MacDevice: uplink before join");
  MacFrame f;
  f.type = confirmed ? MacMessageType::kConfirmedUp
                     : MacMessageType::kUnconfirmedUp;
  f.dev_addr = dev_addr_;
  f.fcnt = fcnt_up_++;
  f.fport = fport;
  f.payload.assign(payload.begin(), payload.end());
  auto body = f.serialize();
  // MIC covers everything before the MIC itself.
  std::vector<std::uint8_t> covered(body.begin(), body.end() - 4);
  f.mic = compute_mic(covered, key_);
  return f.serialize();
}

std::optional<std::vector<std::uint8_t>> MacNetwork::handle_join(
    std::span<const std::uint8_t> frame) {
  // MHDR(1) + DevEUI(8) + DevNonce(2) + MIC(4).
  if (frame.size() != 15) return std::nullopt;
  if (static_cast<MacMessageType>(frame[0] & 0xE0) !=
      MacMessageType::kJoinRequest)
    return std::nullopt;
  std::vector<std::uint8_t> body(frame.begin(), frame.end() - 4);
  if (compute_mic(body, app_key_) != read_u32(frame, frame.size() - 4))
    return std::nullopt;

  DevAddr assigned = next_addr_++;
  last_counter_.emplace_back(assigned, 0);

  std::vector<std::uint8_t> accept;
  accept.push_back(static_cast<std::uint8_t>(MacMessageType::kJoinAccept));
  push_u32(accept, assigned);
  std::uint32_t mic = compute_mic(accept, app_key_);
  push_u32(accept, mic);
  return accept;
}

std::optional<MacFrame> MacNetwork::handle_uplink(
    std::span<const std::uint8_t> frame) {
  auto f = MacFrame::parse(frame);
  if (!f) return std::nullopt;
  if (f->type != MacMessageType::kUnconfirmedUp &&
      f->type != MacMessageType::kConfirmedUp)
    return std::nullopt;
  std::vector<std::uint8_t> covered(frame.begin(), frame.end() - 4);
  if (compute_mic(covered, app_key_) != f->mic) return std::nullopt;
  for (auto& [addr, counter] : last_counter_) {
    if (addr == f->dev_addr) {
      if (f->fcnt < counter) return std::nullopt;  // replay
      counter = static_cast<std::uint16_t>(f->fcnt + 1);
      return f;
    }
  }
  // ABP device not seen before: accept and start tracking.
  last_counter_.emplace_back(f->dev_addr,
                             static_cast<std::uint16_t>(f->fcnt + 1));
  return f;
}

}  // namespace tinysdr::lora
