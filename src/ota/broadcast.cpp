#include "ota/broadcast.hpp"

#include <algorithm>

namespace tinysdr::ota {

BroadcastOutcome broadcast(const std::vector<std::uint8_t>& image,
                           std::vector<OtaLink>& links) {
  BroadcastOutcome outcome;
  const std::size_t packet_count = (image.size() + kDataPayload - 1) /
                                   kDataPayload;
  // missing[node][seq] — start with everything missing everywhere.
  std::vector<std::vector<bool>> missing(
      links.size(), std::vector<bool>(packet_count, true));

  // Per-packet airtime (size of the last packet differs; use the common
  // full-size airtime for all but the tail).
  auto payload_of = [&](std::size_t seq) {
    return std::min(kDataPayload, image.size() - seq * kDataPayload);
  };
  OtaPacket ack{OtaPacketType::kDataAck, 0, 0, 0, {}};
  const Seconds poll_time =
      links.empty() ? Seconds{0.0}
                    : links[0].airtime(ack.wire_size() + 8);  // bitmap poll

  for (std::size_t round = 0; round < kBroadcastMaxRounds; ++round) {
    // Union of missing sequence numbers across incomplete nodes.
    std::vector<std::size_t> to_send;
    for (std::size_t seq = 0; seq < packet_count; ++seq) {
      bool any = false;
      for (const auto& m : missing)
        if (m[seq]) {
          any = true;
          break;
        }
      if (any) to_send.push_back(seq);
    }
    if (to_send.empty()) break;
    ++outcome.repair_rounds;

    for (std::size_t seq : to_send) {
      std::size_t bytes = payload_of(seq);
      OtaPacket data{OtaPacketType::kData, 0xFFFF,
                     static_cast<std::uint16_t>(seq), 0, {}};
      data.payload.resize(bytes);
      Seconds t = links[0].airtime(data.wire_size());
      outcome.total_time += t;
      ++outcome.packets_broadcast;
      // Every node independently receives or loses this broadcast.
      for (std::size_t n = 0; n < links.size(); ++n) {
        if (!missing[n][seq]) continue;
        if (links[n].deliver(data.wire_size())) missing[n][seq] = false;
      }
    }

    // Repair poll: each still-incomplete node reports its bitmap.
    for (std::size_t n = 0; n < links.size(); ++n) {
      bool incomplete =
          std::any_of(missing[n].begin(), missing[n].end(),
                      [](bool m) { return m; });
      if (incomplete || outcome.repair_rounds == 1)
        outcome.total_time += poll_time;
    }
  }

  for (const auto& m : missing) {
    if (std::none_of(m.begin(), m.end(), [](bool x) { return x; }))
      ++outcome.nodes_complete;
  }
  return outcome;
}

}  // namespace tinysdr::ota
