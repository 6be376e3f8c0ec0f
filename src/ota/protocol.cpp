#include "ota/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>

#include "common/crc.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/platform_power.hpp"

namespace tinysdr::ota {

lora::LoraParams ota_link_params() {
  lora::LoraParams p{8, Hertz::from_kilohertz(500.0), lora::CodingRate::kCr46};
  p.preamble_symbols = kOtaPreambleSymbols;
  return p;
}

std::size_t OtaPacket::wire_size() const {
  // type(1) + device(2) + seq(2) + crc16(2) [+ crc32(4) for END] + payload.
  std::size_t base = 7;
  if (type == OtaPacketType::kEnd) base += 4;
  return base + payload.size();
}

const char* to_string(UpdateFailure failure) {
  switch (failure) {
    case UpdateFailure::kNone:
      return "none";
    case UpdateFailure::kAssociation:
      return "association";
    case UpdateFailure::kRetryBudget:
      return "retry-budget";
    case UpdateFailure::kDeadline:
      return "deadline";
    case UpdateFailure::kEndHandshake:
      return "end-handshake";
    case UpdateFailure::kStreamCorrupt:
      return "stream-corrupt";
    case UpdateFailure::kDecodeFailed:
      return "decode-failed";
    case UpdateFailure::kImageVerify:
      return "image-verify";
    case UpdateFailure::kRejectedRollback:
      return "rejected-rollback";
  }
  return "?";
}

// ------------------------------------------------------------------ OtaLink

double OtaLink::packet_error_rate(std::size_t payload_bytes) const {
  Dbm sensitivity = lora::sx1276_sensitivity(params_.sf, params_.bandwidth);
  double margin = rssi_ - sensitivity;
  // Logistic waterfall ~3 dB wide, scaled mildly by packet length (longer
  // packets waterfall slightly earlier).
  double length_penalty =
      0.5 * std::log10(1.0 + static_cast<double>(payload_bytes) / 20.0);
  double x = (margin - length_penalty) / 0.8;
  double per = 1.0 / (1.0 + std::exp(x));
  return per;
}

Seconds OtaLink::airtime(std::size_t payload_bytes) const {
  return lora::time_on_air(params_, payload_bytes);
}

void OtaLink::set_burst(const channel::GilbertElliottParams& params) {
  burst_.emplace(params, Rng{rng_.next_u32(), 0x6E11});
}

bool OtaLink::deliver(std::size_t payload_bytes) {
  // Exactly one draw of each loss process per delivery attempt, so
  // retransmissions redraw and runs replay from the seed.
  bool rssi_lost = rng_.next_bool(packet_error_rate(payload_bytes));
  bool burst_lost = burst_ && burst_->lose_packet();
  bool delivered = !rssi_lost && !burst_lost;
  if (auto* m = obs::metrics()) {
    m->counter("radio.link_attempts").add();
    if (!delivered) m->counter("radio.link_drops").add();
  }
  if (!delivered) {
    if (auto* t = obs::tracer()) {
      t->instant("radio", "packet-loss",
                 {obs::TraceArg::str("cause", rssi_lost ? "rssi" : "burst"),
                  obs::TraceArg::num("bytes",
                                     static_cast<double>(payload_bytes))});
    }
  }
  return delivered;
}

// ---------------------------------------------------------------- NodeAgent

namespace {

constexpr std::uint32_t kSessionMagic = 0x4F544131;  // "OTA1"
constexpr std::size_t kSessionHeader = 12;           // magic + id + bytes

void push_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

std::uint32_t read_u32(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint32_t>(in[at]) |
         (static_cast<std::uint32_t>(in[at + 1]) << 8) |
         (static_cast<std::uint32_t>(in[at + 2]) << 16) |
         (static_cast<std::uint32_t>(in[at + 3]) << 24);
}

/// Payload bytes of DATA chunk `seq` of a `stream_bytes`-byte stream.
std::size_t chunk_size(std::size_t stream_bytes, std::size_t seq) {
  return std::min(kDataPayload, stream_bytes - seq * kDataPayload);
}

}  // namespace

NodeAgent::NodeAgent(std::uint16_t device_id, FlashModel& flash,
                     sim::FaultInjector* faults, mcu::Msp432* mcu)
    : device_id_(device_id), flash_(&flash), faults_(faults), mcu_(mcu) {
  install_flash_hooks();
}

void NodeAgent::install_flash_hooks() {
  if (!faults_) return;
  flash_->set_page_program_hook(
      [this](std::size_t address, std::size_t length)
          -> std::optional<PageProgramFault> {
        auto fault = faults_->page_program_fault(address, length);
        if (!fault) return std::nullopt;
        return PageProgramFault{fault->committed, fault->torn_keep_mask};
      });
  flash_->set_sector_erase_hook([this](std::size_t address) {
    return faults_->sector_erase_fault(address);
  });
}

bool NodeAgent::has_chunk(std::size_t seq) const {
  if (seq >= total_chunks_) return false;
  return (bitmap_[seq / 8] >> (seq % 8)) & 1u;
}

void NodeAgent::mark_chunk(std::size_t seq) {
  bitmap_[seq / 8] |= static_cast<std::uint8_t>(1u << (seq % 8));
}

bool NodeAgent::begin_session(std::uint32_t session_id,
                              std::size_t stream_bytes) {
  if (stream_bytes > kStagingCapacity)
    throw std::length_error("NodeAgent: stream exceeds staging region");
  if (mcu_) mcu_->kick_watchdog();
  if (session_active_ && session_id_ == session_id &&
      stream_bytes_ == stream_bytes)
    return true;  // already running this session (AP re-associated)

  session_id_ = session_id;
  stream_bytes_ = stream_bytes;
  total_chunks_ = (stream_bytes + kDataPayload - 1) / kDataPayload;
  received_ = 0;
  bytes_received_ = 0;
  session_active_ = true;

  // A matching checkpoint in flash means we crashed mid-transfer: resume.
  const std::size_t body = kSessionHeader + (total_chunks_ + 7) / 8;
  auto record = flash_->read(kSessionSector, body + 4);
  if (read_u32(record, 0) == kSessionMagic &&
      read_u32(record, 4) == session_id &&
      read_u32(record, 8) == static_cast<std::uint32_t>(stream_bytes)) {
    std::uint32_t crc = read_u32(record, body);
    if (crc32_ieee(std::span(record).first(body)) == crc) {
      bitmap_.assign(record.begin() + kSessionHeader,
                     record.begin() + static_cast<std::ptrdiff_t>(body));
      for (std::size_t seq = 0; seq < total_chunks_; ++seq) {
        if (has_chunk(seq)) {
          ++received_;
          bytes_received_ += chunk_size(stream_bytes_, seq);
        }
      }
      ++resumes_;
      obs::node_event(obs::FlightLevel::kInfo, "ota", "session-resume",
                      "ota.session_resumes", "chunks_held",
                      static_cast<double>(received_));
      if (mcu_) mcu_->arm_watchdog(kWatchdogTimeout);
      return true;
    }
  }

  // Fresh session: erase the staging region (verify-and-retry, since an
  // injected erase fault leaves stuck bits a re-program cannot clear).
  bitmap_.assign((total_chunks_ + 7) / 8, 0);
  if (stream_bytes > 0) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (flash_->erase_range(kStagingBase, stream_bytes) &&
          flash_->is_erased(kStagingBase, stream_bytes))
        break;
    }
  }
  if (mcu_) mcu_->arm_watchdog(kWatchdogTimeout);
  persist_session();
  return false;
}

NodeAgent::RxStatus NodeAgent::receive_chunk(
    std::uint16_t seq, std::span<const std::uint8_t> payload, bool corrupted) {
  if (!online_ || !session_active_) return RxStatus::kNoSession;
  if (mcu_) mcu_->kick_watchdog();
  // The per-packet CRC16 catches in-flight corruption; the packet is
  // simply dropped and shows up as a gap in the bitmap.
  if (corrupted) return RxStatus::kCorrupt;
  if (seq >= total_chunks_ ||
      payload.size() != chunk_size(stream_bytes_, seq))
    return RxStatus::kCorrupt;
  if (has_chunk(seq)) return RxStatus::kDuplicate;

  // "Considering the LoRa radio takes more power than the MCU, we
  // immediately write the data to flash" (§3.4) — then read back to
  // verify, as real update firmware does.
  std::size_t address = kStagingBase + seq * kDataPayload;
  flash_->program(address, payload);
  if (!std::ranges::equal(flash_->view(address, payload.size()), payload)) {
    ++flash_write_errors_;
    obs::node_event(obs::FlightLevel::kWarn, "ota", "flash-write-error",
                    "ota.flash_write_errors", "seq", static_cast<double>(seq));
    return RxStatus::kFlashError;
  }
  mark_chunk(seq);
  ++received_;
  bytes_received_ += payload.size();
  // A scheduled brownout fires on the byte count crossing its offset.
  if (faults_ && faults_->brownout_due(bytes_received_)) reboot();
  return RxStatus::kStored;
}

std::vector<std::uint8_t> NodeAgent::window_bitmap(std::size_t base,
                                                   std::size_t count) const {
  std::vector<std::uint8_t> bits((count + 7) / 8, 0);
  for (std::size_t i = 0; i < count; ++i) {
    if (has_chunk(base + i))
      bits[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return bits;
}

void NodeAgent::persist_session() {
  if (!session_active_ || !online_) return;
  std::vector<std::uint8_t> record;
  record.reserve(kSessionHeader + bitmap_.size() + 4);
  push_u32(record, kSessionMagic);
  push_u32(record, session_id_);
  push_u32(record, static_cast<std::uint32_t>(stream_bytes_));
  record.insert(record.end(), bitmap_.begin(), bitmap_.end());
  push_u32(record, crc32_ieee(record));
  // Checkpointing must survive its own faults: erase-verify-retry, then
  // program and read back. A bad checkpoint simply fails the CRC at
  // restore time and the node starts fresh — never boots corrupt state.
  for (int attempt = 0; attempt < 3; ++attempt) {
    bool erased = false;
    for (int e = 0; e < 3; ++e) {
      if (flash_->erase_sector(kSessionSector) &&
          flash_->is_erased(kSessionSector, record.size())) {
        erased = true;
        break;
      }
    }
    if (!erased) continue;
    flash_->program(kSessionSector, record);
    if (std::ranges::equal(flash_->view(kSessionSector, record.size()),
                           record))
      return;
  }
}

void NodeAgent::clear_session() {
  flash_->erase_sector(kSessionSector);
  drop_session();
  if (mcu_) mcu_->disarm_watchdog();
}

void NodeAgent::drop_session() {
  session_active_ = false;
  bitmap_.clear();
  received_ = 0;
  bytes_received_ = 0;
}

void NodeAgent::reboot() {
  // Brownout: every RAM structure is gone; flash (staged chunks + the
  // session checkpoint) survives.
  obs::node_event(obs::FlightLevel::kWarn, "power", "brownout-reboot",
                  "power.node_reboots", "bytes_received",
                  static_cast<double>(bytes_received_));
  drop_session();
  online_ = false;
  ++reboots_;
  if (mcu_) mcu_->reset(mcu::ResetCause::kBrownout);
}

bool NodeAgent::poll_boot() {
  if (online_) return true;
  online_ = true;
  if (auto* t = obs::tracer()) t->instant("power", "node-boot");
  // Boot firmware scans the session sector; a valid checkpoint re-enters
  // the transfer where the last persisted bitmap left off.
  auto header = flash_->read(kSessionSector, kSessionHeader);
  if (read_u32(header, 0) == kSessionMagic) {
    std::uint32_t id = read_u32(header, 4);
    std::size_t bytes = read_u32(header, 8);
    if (bytes <= kStagingCapacity) {
      session_active_ = false;  // force the restore path
      if (begin_session(id, bytes) && session_active_) return true;
      // begin_session returning false means it started *fresh* (bad CRC on
      // the checkpoint); that is still a valid boot.
    }
  }
  return true;
}

void NodeAgent::advance_time(Seconds elapsed) {
  if (!mcu_ || !online_) return;
  if (mcu_->advance_time(elapsed)) {
    // Watchdog fired: same RAM loss as a brownout, but the MCU reset has
    // already happened inside advance_time.
    obs::node_event(obs::FlightLevel::kWarn, "power", "watchdog-reset",
                    "power.watchdog_resets");
    drop_session();
    online_ = false;
    ++reboots_;
  }
}

bool NodeAgent::verify_stream(std::uint32_t crc32) const {
  if (!session_active_ || received_ != total_chunks_) return false;
  return crc32_ieee(flash_->view(kStagingBase, stream_bytes_)) == crc32;
}

// -------------------------------------------------------- transfer engine

namespace {

/// Base retransmission timeout; backoff doubles it per consecutive
/// failure (at most 10 doublings), capped at kMaxBackoff.
constexpr Seconds kAckTimeout = Seconds::from_milliseconds(20.0);
constexpr double kBackoffFactor = 2.0;
constexpr Seconds kMaxBackoff{2.0};

/// Shared state of one simulated transfer: accounting, backoff, and the
/// control-plane helpers used by both ACK modes.
class TransferEngine {
 public:
  TransferEngine(const std::vector<std::uint8_t>& stream,
                 std::uint16_t device_id, OtaLink& link,
                 const TransferPolicy& policy, NodeAgent& node,
                 sim::FaultInjector* faults, LinkAttacker* attacker,
                 UpdateOutcome& outcome)
      : stream_(stream),
        device_id_(device_id),
        link_(link),
        policy_(policy),
        node_(node),
        faults_(faults),
        attacker_(attacker),
        outcome_(outcome),
        chunks_((stream.size() + kDataPayload - 1) / kDataPayload),
        got_(chunks_, false),
        session_id_(crc32_ieee(stream)) {
    power::PlatformPowerModel power_model;
    rx_draw_ = power_model.draw(power::Activity::kOtaReceive);
    outcome_.sends_per_chunk.assign(chunks_, 0);
    outcome_.link_seed = link.seed();
  }

  void run() {
    // Each transfer owns the tracer's engine-relative clock; campaigns
    // lay consecutive transfers end to end with shift_base between runs.
    obs::set_time(outcome_.total_time);
    obs::TraceSpan span{"ota", "transfer"};
    span.arg("bytes", static_cast<double>(stream_.size()));
    span.arg("chunks", static_cast<double>(chunks_));
    run_phases();
    if (auto* t = obs::tracer()) {
      t->instant("ota", outcome_.success ? "update-ok" : "update-failed",
                 {obs::TraceArg::str("failure", to_string(outcome_.failure))});
    }
    if (auto* f = obs::flight()) {
      if (!outcome_.success) {
        f->record(obs::FlightLevel::kError, "ota",
                  std::string("update-failed: ") + to_string(outcome_.failure),
                  {obs::TraceArg::num("retransmissions",
                                      static_cast<double>(
                                          outcome_.retransmissions)),
                   obs::TraceArg::num("time_s", outcome_.total_time.value())});
      } else {
        f->record(obs::FlightLevel::kDebug, "ota", "update-ok",
                  {obs::TraceArg::num("time_s", outcome_.total_time.value())});
      }
    }
  }

  void run_phases() {
    if (!associate(/*initial=*/true)) {
      fail(UpdateFailure::kAssociation);
      return finish();
    }
    UpdateFailure data_result = policy_.mode == AckMode::kSelectiveAck
                                    ? run_selective_ack()
                                    : run_stop_and_wait();
    if (data_result != UpdateFailure::kNone) {
      fail(data_result);
      return finish();
    }
    // END handshake; a verify failure earns one bitmap-rescan repair
    // round in selective-ACK mode before giving up.
    for (std::size_t repair = 0; repair <= 1; ++repair) {
      EndResult end = end_handshake();
      if (end == EndResult::kOk) {
        outcome_.success = true;
        node_.clear_session();
        return finish();
      }
      if (end == EndResult::kTimeout) {
        fail(UpdateFailure::kEndHandshake);
        return finish();
      }
      if (policy_.mode != AckMode::kSelectiveAck || repair == 1) break;
      ++outcome_.repair_rounds;
      rescan_bitmap();
      if (run_selective_ack() != UpdateFailure::kNone) break;
    }
    fail(UpdateFailure::kStreamCorrupt);
    finish();
  }

 private:
  enum class EndResult { kOk, kVerifyFailed, kTimeout };

  // --------------------------------------------------------- accounting

  /// A packet actually on the air: both sides pay airtime and the node's
  /// radio is up for it.
  void account_air(Seconds t) {
    outcome_.airtime += t;
    outcome_.total_time += t;
    outcome_.node_energy += rx_draw_ * t;
    obs::set_time(outcome_.total_time);
    if (auto* tr = obs::tracer())
      tr->counter("power", "node_energy_mj", outcome_.node_energy.value());
    node_.advance_time(t);
  }

  /// Idle wait (timeout, backoff): wall-clock only. Node boots complete
  /// during waits.
  void wait(Seconds t) {
    if (faults_) t = faults_->jitter(t);
    outcome_.total_time += t;
    obs::set_time(outcome_.total_time);
    node_.advance_time(t);
    node_.poll_boot();
  }

  void backoff(std::size_t consecutive_failures) {
    double factor = std::pow(kBackoffFactor,
                             static_cast<double>(
                                 std::min<std::size_t>(consecutive_failures,
                                                       10)));
    Seconds t{std::min(kAckTimeout.value() * factor, kMaxBackoff.value())};
    ++outcome_.backoff_events;
    Seconds start{0.0};
    auto* tr = obs::tracer();
    if (tr != nullptr) start = tr->now();
    wait(t);
    if (tr != nullptr) {
      tr->complete("ota", "backoff", start, tr->now() - start,
                   {obs::TraceArg::num("failures", static_cast<double>(
                                                       consecutive_failures))});
    }
    if (auto* m = obs::metrics()) {
      m->counter("ota.backoff_events").add();
      m->histogram("ota.backoff_s",
                   obs::HistogramSpec::log_scale(1e-3, 1e3, 30))
          .observe(t.value());
    }
  }

  [[nodiscard]] bool deadline_exceeded() const {
    return policy_.deadline.value() > 0.0 &&
           outcome_.total_time > policy_.deadline;
  }

  // ----------------------------------------------------------- adversary

  /// Delivery wrapper: a jammer can destroy a packet that would have
  /// arrived. The link's loss draw still happens first, so attacked and
  /// clean runs consume the same loss stream and stay comparable.
  bool deliver_packet(OtaPacketType type, std::size_t wire_bytes) {
    bool delivered = link_.deliver(wire_bytes);
    if (delivered && attacker_ != nullptr &&
        attacker_->jam_packet(type, wire_bytes)) {
      ++outcome_.jammed_packets;
      note_attack("adversary.ota.jammed_packet");
      return false;
    }
    return delivered;
  }

  /// Record a detected attack event, named after the last component of
  /// its counter (`adversary.ota.<kind>`); opens the time-to-recovery
  /// window if one is not already running.
  void note_attack(const char* counter) {
    if (!attack_since_) attack_since_ = outcome_.total_time;
    obs::node_event(obs::FlightLevel::kWarn, "adversary",
                    std::strrchr(counter, '.') + 1, counter);
  }

  /// Forward progress after an attack: close the recovery window and
  /// observe how long the attacker held the transfer back.
  void note_progress() {
    if (!attack_since_) return;
    if (auto* m = obs::metrics()) {
      m->histogram("adversary.ota.recovery_s",
                   obs::HistogramSpec::log_scale(1e-3, 1e4, 40))
          .observe(outcome_.total_time.value() - attack_since_->value());
    }
    attack_since_.reset();
  }

  void fail(UpdateFailure cause) {
    outcome_.success = false;
    if (outcome_.failure == UpdateFailure::kNone) outcome_.failure = cause;
  }

  void finish() {
    outcome_.data_packets = static_cast<std::size_t>(
        std::count(got_.begin(), got_.end(), true));
    outcome_.node_reboots = node_.reboot_count();
    outcome_.session_resumes = node_.resume_count();
    outcome_.flash_write_errors = node_.flash_write_errors();
    if (auto* m = obs::metrics()) {
      m->counter("ota.transfers").add();
      m->counter(outcome_.success ? "ota.success" : "ota.failures").add();
      m->counter("ota.retransmissions")
          .add(static_cast<double>(outcome_.retransmissions));
      m->counter("ota.duplicates_dropped")
          .add(static_cast<double>(outcome_.duplicates_dropped));
      m->counter("ota.corrupted_dropped")
          .add(static_cast<double>(outcome_.corrupted_dropped));
      m->histogram("ota.transfer_time_s",
                   obs::HistogramSpec::log_scale(0.1, 1e5, 50))
          .observe(outcome_.total_time.value());
      m->histogram("ota.node_energy_mj",
                   obs::HistogramSpec::log_scale(0.1, 1e6, 50))
          .observe(outcome_.node_energy.value());
    }
  }

  // ------------------------------------------------------ control plane

  bool associate(bool initial) {
    obs::TraceSpan span{"ota", initial ? "associate" : "re-associate"};
    OtaPacket request{OtaPacketType::kProgrammingRequest, device_id_, 0, 0,
                      {}};
    OtaPacket ready{OtaPacketType::kReady, device_id_, 0, 0,
                    std::vector<std::uint8_t>(1, 0)};
    for (std::size_t attempt = 0; attempt < policy_.max_retries; ++attempt) {
      if (deadline_exceeded()) return false;
      account_air(link_.airtime(request.wire_size()));
      if (deliver_packet(OtaPacketType::kProgrammingRequest,
                         request.wire_size()) &&
          node_.online()) {
        bool resumed = node_.begin_session(
            session_id_, stream_.size());
        // READY is only on the air if the node heard the request.
        account_air(link_.airtime(ready.wire_size()));
        if (deliver_packet(OtaPacketType::kReady, ready.wire_size())) {
          if (!resumed && !initial) {
            // Node lost its session state entirely: our delivery ledger
            // is stale, start over from an empty bitmap.
            std::fill(got_.begin(), got_.end(), false);
            delivered_prefix_ = 0;
          }
          return true;
        }
      }
      backoff(attempt);
    }
    return false;
  }

  /// Budget-exhaustion escape hatch shared by both data-plane modes:
  /// attempt a re-association (the node may have rebooted and be waiting
  /// in its resumed session). Returns false when out of budget for good.
  bool try_reassociate() {
    if (reassociations_used_ >= kMaxReassociations) return false;
    ++reassociations_used_;
    ++outcome_.reassociations;
    return associate(/*initial=*/false);
  }

  // ----------------------------------------------------------- data plane

  /// Flow id binding every TX/retransmission/ACK leg of one chunk's
  /// journey. Derived from the link seed (golden-ratio product) xor the
  /// seq, so ids are deterministic per run, unique per chunk, and
  /// distinct across nodes in a campaign (each node gets its own link
  /// seed).
  [[nodiscard]] std::uint64_t chunk_flow(std::size_t seq) const {
    return (outcome_.link_seed * 0x9E3779B97F4A7C15ULL) ^
           static_cast<std::uint64_t>(seq);
  }

  /// Transmit one DATA packet; returns true if the node verified+stored
  /// (or already had) the chunk.
  bool send_chunk(std::size_t seq) {
    OtaPacket data{OtaPacketType::kData, device_id_,
                   static_cast<std::uint16_t>(seq), 0, {}};
    const auto chunk = std::span(stream_).subspan(
        seq * kDataPayload, chunk_size(stream_.size(), seq));
    data.payload.assign(chunk.begin(), chunk.end());
    Seconds air = link_.airtime(data.wire_size());
    Seconds start{0.0};
    auto* tr = obs::tracer();
    if (tr != nullptr) start = tr->now();
    const std::uint32_t send_count = ++outcome_.sends_per_chunk[seq];
    if (send_count > 1) ++outcome_.retransmissions;
    if (tr != nullptr) {
      // Flow legs land at the DATA slice's start so Perfetto binds the
      // arrow to it: begin on first TX, step on every retransmission.
      if (send_count == 1)
        tr->flow_begin("ota", "chunk", chunk_flow(seq));
      else
        tr->flow_step("ota", "chunk", chunk_flow(seq));
    }
    account_air(air);
    if (tr != nullptr) {
      tr->complete("ota", "data", start, air,
                   {obs::TraceArg::num("seq", static_cast<double>(seq)),
                    obs::TraceArg::num("send",
                                       static_cast<double>(send_count))});
    }
    if (auto* m = obs::metrics()) m->counter("ota.data_packets_sent").add();
    if (!deliver_packet(OtaPacketType::kData, data.wire_size()) ||
        !node_.online())
      return false;

    bool corrupted = faults_ && faults_->corrupt_packet();
    bool truncated = !corrupted && attacker_ != nullptr &&
                     attacker_->truncate_chunk(static_cast<std::uint16_t>(seq));
    if (truncated) {
      // The radio hears a shortened DATA frame; the node's length check
      // rejects it exactly like in-flight corruption.
      auto clipped =
          std::span(data.payload).first(data.payload.size() - 1);
      if (node_.receive_chunk(static_cast<std::uint16_t>(seq), clipped,
                              false) == NodeAgent::RxStatus::kCorrupt) {
        ++outcome_.truncated_dropped;
        note_attack("adversary.ota.truncated_dropped");
      }
      return false;
    }
    auto status = node_.receive_chunk(static_cast<std::uint16_t>(seq),
                                      data.payload, corrupted);
    switch (status) {
      case NodeAgent::RxStatus::kCorrupt:
        ++outcome_.corrupted_dropped;
        return false;
      case NodeAgent::RxStatus::kFlashError:
      case NodeAgent::RxStatus::kNoSession:
        return false;
      case NodeAgent::RxStatus::kDuplicate:
        ++outcome_.duplicates_dropped;
        break;
      case NodeAgent::RxStatus::kStored:
        note_progress();
        break;
    }
    // The ether can hand the radio a second copy; the bitmap dedups it.
    if (faults_ && faults_->duplicate_packet() && node_.online()) {
      if (node_.receive_chunk(static_cast<std::uint16_t>(seq), data.payload,
                              false) == NodeAgent::RxStatus::kDuplicate)
        ++outcome_.duplicates_dropped;
    }
    // A protocol attacker can replay a captured copy too; same dedup.
    if (attacker_ != nullptr &&
        attacker_->replay_chunk(static_cast<std::uint16_t>(seq)) &&
        node_.online()) {
      if (node_.receive_chunk(static_cast<std::uint16_t>(seq), data.payload,
                              false) == NodeAgent::RxStatus::kDuplicate) {
        ++outcome_.replays_dropped;
        note_attack("adversary.ota.replay_dropped");
      }
    }
    return true;
  }

  /// One SACK poll over chunks [base, base+count). Returns the bitmap, or
  /// nullopt if either side of the exchange was lost.
  std::optional<std::vector<std::uint8_t>> poll_bitmap(std::size_t base,
                                                       std::size_t count) {
    obs::TraceSpan span{"ota", "sack-poll"};
    span.arg("base", static_cast<double>(base));
    OtaPacket query{OtaPacketType::kSackQuery, device_id_,
                    static_cast<std::uint16_t>(base), 0,
                    std::vector<std::uint8_t>(2, 0)};
    account_air(link_.airtime(query.wire_size()));
    if (!deliver_packet(OtaPacketType::kSackQuery, query.wire_size()) ||
        !node_.online() || !node_.has_session())
      return std::nullopt;
    // The node checkpoints at every acknowledgement point, so anything it
    // reports as received survives a brownout.
    node_.persist_session();
    wait(FlashModel::sector_erase_time() +
         FlashModel::program_time((node_.total_chunks() + 7) / 8 + 16));
    auto bits = node_.window_bitmap(base, count);
    OtaPacket sack{OtaPacketType::kSack, device_id_,
                   static_cast<std::uint16_t>(base), 0, bits};
    // A forged SACK races the node's genuine reply; the AP's session
    // authentication rejects it, but the poll exchange is spent.
    bool forged =
        attacker_ != nullptr && attacker_->forge_ack(OtaPacketType::kSack);
    account_air(link_.airtime(sack.wire_size()));
    bool arrived = deliver_packet(OtaPacketType::kSack, sack.wire_size());
    if (forged) {
      ++outcome_.forged_acks_discarded;
      note_attack("adversary.ota.forged_ack_discarded");
      return std::nullopt;
    }
    if (!arrived) return std::nullopt;
    ++outcome_.ack_packets;
    return bits;
  }

  /// Largest seq span a single SACK payload can cover (bounded by the
  /// 60 B LoRa payload: 2 B base + bitmap).
  static constexpr std::size_t kSackSpan = (kDataPayload - 2) * 8;

  UpdateFailure run_selective_ack() {
    std::size_t consecutive_failures = 0;
    while (true) {
      if (deadline_exceeded()) return UpdateFailure::kDeadline;
      // Collect the next window: lowest missing seqs within one SACK span.
      while (delivered_prefix_ < chunks_ && got_[delivered_prefix_])
        ++delivered_prefix_;
      std::vector<std::size_t> window;
      std::size_t base = 0;
      for (std::size_t seq = delivered_prefix_;
           seq < chunks_ && window.size() < policy_.window; ++seq) {
        if (got_[seq]) continue;
        if (window.empty()) base = seq;
        if (seq - base >= kSackSpan) break;
        window.push_back(seq);
      }
      if (window.empty()) return UpdateFailure::kNone;  // all delivered

      if (consecutive_failures > policy_.max_retries) {
        if (!try_reassociate()) return UpdateFailure::kRetryBudget;
        consecutive_failures = 0;
        continue;
      }

      for (std::size_t seq : window) {
        if (deadline_exceeded()) return UpdateFailure::kDeadline;
        send_chunk(seq);
      }

      std::size_t span =
          std::min(kSackSpan, chunks_ - base);
      auto bits = poll_bitmap(base, span);
      if (!bits) {
        ++consecutive_failures;
        backoff(consecutive_failures);
        continue;
      }
      bool progress = false;
      auto* tr = obs::tracer();
      for (std::size_t i = 0; i < span; ++i) {
        if (((*bits)[i / 8] >> (i % 8)) & 1u) {
          if (!got_[base + i]) {
            progress = true;
            // This SACK is the first to cover the chunk: close its flow.
            if (tr != nullptr)
              tr->flow_end("ota", "chunk", chunk_flow(base + i));
          }
          got_[base + i] = true;
        }
      }
      if (progress) {
        consecutive_failures = 0;
        note_progress();
      } else {
        ++consecutive_failures;
        backoff(consecutive_failures);
      }
    }
  }

  UpdateFailure run_stop_and_wait() {
    OtaPacket ack{OtaPacketType::kDataAck, device_id_, 0, 0, {}};
    const Seconds t_ack = link_.airtime(ack.wire_size());
    std::size_t stored_since_persist = 0;
    for (std::size_t seq = 0; seq < chunks_; ++seq) {
      if (got_[seq]) continue;
      std::size_t attempts = 0;
      while (!got_[seq]) {
        if (deadline_exceeded()) return UpdateFailure::kDeadline;
        if (attempts >= policy_.max_retries) {
          if (!try_reassociate()) return UpdateFailure::kRetryBudget;
          attempts = 0;
          if (got_[seq]) break;  // ledger says delivered after re-sync
        }
        ++attempts;
        bool stored = send_chunk(seq);
        if (!stored) {
          // No ACK comes back; AP retransmits after a timeout.
          wait(kAckTimeout);
          ++outcome_.backoff_events;
          continue;
        }
        // Reordering in stop-and-wait means the ACK shows up after the
        // timeout: the AP has already given up on the attempt and will
        // retransmit (the node dedups the copy).
        if (faults_ && faults_->reorder_packet()) {
          account_air(t_ack);
          wait(kAckTimeout);
          continue;
        }
        bool forged = attacker_ != nullptr &&
                      attacker_->forge_ack(OtaPacketType::kDataAck);
        account_air(t_ack);
        bool acked = deliver_packet(OtaPacketType::kDataAck, ack.wire_size());
        if (forged) {
          // Forged ACK beats the node's; authentication discards it and
          // the AP retransmits (the node dedups the copy).
          ++outcome_.forged_acks_discarded;
          note_attack("adversary.ota.forged_ack_discarded");
          wait(kAckTimeout);
          continue;
        }
        if (!acked) {
          wait(kAckTimeout);
          continue;  // duplicate data next attempt; node dedups by seq
        }
        got_[seq] = true;
        if (auto* tr = obs::tracer())
          tr->flow_end("ota", "chunk", chunk_flow(seq));
        ++outcome_.ack_packets;
        note_progress();
        if (++stored_since_persist >= policy_.window) {
          node_.persist_session();
          wait(FlashModel::sector_erase_time());
          stored_since_persist = 0;
        }
      }
    }
    return UpdateFailure::kNone;
  }

  /// After an END fingerprint failure: rebuild the delivery ledger from
  /// full-range bitmap polls (the node may have lost unpersisted chunks
  /// in a brownout).
  void rescan_bitmap() {
    delivered_prefix_ = 0;
    for (std::size_t base = 0; base < chunks_; base += kSackSpan) {
      std::size_t span = std::min(kSackSpan, chunks_ - base);
      for (std::size_t attempt = 0; attempt < policy_.max_retries; ++attempt) {
        auto bits = poll_bitmap(base, span);
        if (bits) {
          for (std::size_t i = 0; i < span; ++i)
            got_[base + i] = ((*bits)[i / 8] >> (i % 8)) & 1u;
          break;
        }
        backoff(attempt + 1);
      }
    }
  }

  EndResult end_handshake() {
    obs::TraceSpan span{"ota", "end-handshake"};
    OtaPacket end{OtaPacketType::kEnd, device_id_,
                  static_cast<std::uint16_t>(chunks_), session_id_, {}};
    OtaPacket end_ack{OtaPacketType::kEndAck, device_id_, 0, 0,
                      std::vector<std::uint8_t>(1, 0)};
    for (std::size_t attempt = 0; attempt < policy_.max_retries; ++attempt) {
      if (deadline_exceeded()) return EndResult::kTimeout;
      account_air(link_.airtime(end.wire_size()));
      if (deliver_packet(OtaPacketType::kEnd, end.wire_size()) &&
          node_.online() && node_.has_session()) {
        bool verified = node_.verify_stream(session_id_);
        bool forged = attacker_ != nullptr &&
                      attacker_->forge_ack(OtaPacketType::kEndAck);
        account_air(link_.airtime(end_ack.wire_size()));
        bool arrived =
            deliver_packet(OtaPacketType::kEndAck, end_ack.wire_size());
        if (forged) {
          ++outcome_.forged_acks_discarded;
          note_attack("adversary.ota.forged_ack_discarded");
        } else if (arrived) {
          if (verified) note_progress();
          return verified ? EndResult::kOk : EndResult::kVerifyFailed;
        }
      }
      backoff(attempt + 1);
    }
    return EndResult::kTimeout;
  }

  const std::vector<std::uint8_t>& stream_;
  std::uint16_t device_id_;
  OtaLink& link_;
  const TransferPolicy& policy_;
  NodeAgent& node_;
  sim::FaultInjector* faults_;
  LinkAttacker* attacker_;
  UpdateOutcome& outcome_;
  std::size_t chunks_;
  std::vector<bool> got_;
  /// Every seq below this is in got_. Window collection starts here
  /// instead of at 0; reset wherever got_ can lose entries.
  std::size_t delivered_prefix_ = 0;
  std::uint32_t session_id_;
  Milliwatts rx_draw_{0.0};
  std::size_t reassociations_used_ = 0;
  /// Engine time at the first unrecovered attack event (TTR clock).
  std::optional<Seconds> attack_since_;
};

}  // namespace

UpdateOutcome AccessPoint::transfer(
    const std::vector<std::uint8_t>& compressed_image,
    std::uint16_t device_id, OtaLink& link, const TransferPolicy& policy,
    NodeAgent* node, sim::FaultInjector* faults,
    LinkAttacker* attacker) const {
  UpdateOutcome outcome;
  // Without an explicit node, simulate an ideal one: private flash, no
  // injected faults, no MCU.
  std::optional<FlashModel> local_flash;
  std::optional<NodeAgent> local_node;
  if (node == nullptr) {
    local_flash.emplace();
    local_node.emplace(device_id, *local_flash, faults);
    node = &*local_node;
  }
  TransferEngine engine{compressed_image, device_id, link,    policy,
                        *node,            faults,    attacker, outcome};
  engine.run();
  return outcome;
}

}  // namespace tinysdr::ota
