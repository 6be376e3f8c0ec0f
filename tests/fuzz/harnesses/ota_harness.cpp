// OTA harnesses: the sparse flash model against a dense byte array, the
// node-side chunk store against a reference in-memory model, the full
// AP->node transfer engine under adversarial fault schedules (drops, dups,
// reorders, corruption, brownouts, flash faults), and the LZO block
// decoder against a byte-at-a-time reference decoder.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "harnesses.hpp"
#include "ota/flash.hpp"
#include "ota/lzo.hpp"
#include "ota/protocol.hpp"
#include "sim/faults.hpp"
#include "testkit/bytes.hpp"
#include "testkit/harness.hpp"

namespace tinysdr::fuzz {
namespace {

void require(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error(what);
}

// Differential oracle: FlashModel, which keeps a sector only once an
// operation touches it, against a dense std::vector of the same cells.
// Random erase, erase_range, program, view, read and is_erased calls run
// in a window of a few sectors at the start, middle or end of the array,
// with torn page programs and half-done erases from the fault hooks, and
// a few calls past the end. After every call the two must agree byte for
// byte, and on the counters. The check reads erased sectors through
// is_erased only, so untouched sectors stay untouched until an operation
// touches them.
void flash_differential(std::span<const std::uint8_t> data) {
  using ota::FlashModel;
  constexpr std::size_t kSector = FlashModel::kSectorSize;
  constexpr std::size_t kWindow = 4 * kSector;
  testkit::ByteSource src{data};

  const std::size_t bases[] = {0, FlashModel::kCapacity / 2,
                               FlashModel::kCapacity - kWindow};
  const std::size_t base = bases[src.uint_below(3)];
  const std::uint32_t fault_odds = 2 + src.uint_below(14);  // 1 in N

  FlashModel flash;
  std::vector<std::uint8_t> ref(kWindow, 0xFF);
  std::uint64_t erases = 0, erase_failures = 0;
  std::uint64_t program_failures = 0, bytes_programmed = 0;

  // The hooks log what the model asked for; the reference replays the log
  // after checking it against the operations it expects.
  std::vector<std::pair<std::size_t, bool>> erase_log;
  std::vector<std::pair<std::size_t, std::optional<ota::PageProgramFault>>>
      program_log;
  flash.set_sector_erase_hook([&](std::size_t address) {
    const bool fault = src.uint_below(fault_odds) == 1;
    erase_log.emplace_back(address, fault);
    return fault;
  });
  flash.set_page_program_hook(
      [&](std::size_t address,
          std::size_t length) -> std::optional<ota::PageProgramFault> {
        std::optional<ota::PageProgramFault> fault;
        if (src.uint_below(fault_odds) == 1)
          fault = ota::PageProgramFault{src.uint_below(
                                            static_cast<std::uint32_t>(length) +
                                            2),
                                        src.u8()};
        program_log.emplace_back(address, fault);
        return fault;
      });

  auto ref_erase = [&](std::size_t sector_base) {
    require(!erase_log.empty() && erase_log.front().first == sector_base,
            "erase hook saw the wrong sector");
    const bool fault = erase_log.front().second;
    erase_log.erase(erase_log.begin());
    ++erases;
    if (fault) ++erase_failures;
    std::fill_n(ref.begin() + static_cast<std::ptrdiff_t>(sector_base - base),
                fault ? kSector / 2 : kSector, 0xFF);
    return !fault;
  };
  auto ref_erased = [&](std::size_t off, std::size_t len) {
    return std::all_of(ref.begin() + static_cast<std::ptrdiff_t>(off),
                       ref.begin() + static_cast<std::ptrdiff_t>(off + len),
                       [](std::uint8_t b) { return b == 0xFF; });
  };
  auto ref_bytes = [&](std::size_t off, std::size_t len) {
    return std::vector<std::uint8_t>(
        ref.begin() + static_cast<std::ptrdiff_t>(off),
        ref.begin() + static_cast<std::ptrdiff_t>(off + len));
  };
  auto expect_out_of_range = [](auto&& call, const char* what) {
    bool threw = false;
    try {
      call();
    } catch (const std::out_of_range&) {
      threw = true;
    }
    require(threw, std::string(what) + " past the end did not throw");
  };

  const std::size_t ops = src.uint_below(48);
  for (std::size_t op = 0; op < ops; ++op) {
    const std::size_t off = src.uint_below(kWindow);
    const std::size_t len = src.boolean()
                                ? src.uint_below(3 * FlashModel::kPageSize)
                                : src.uint_below(kWindow - off + 1);
    const std::size_t n = std::min(len, kWindow - off);
    const std::size_t address = base + off;
    switch (src.uint_below(7)) {
      case 0: {
        const bool ok = flash.erase_sector(address);
        require(ok == ref_erase(address - address % kSector),
                "erase_sector result diverged");
        break;
      }
      case 1: {
        const bool ok = flash.erase_range(address, n);
        bool expect = true;
        for (std::size_t s = address - address % kSector;
             n > 0 && s < address + n; s += kSector)
          expect = ref_erase(s) && expect;
        require(ok == expect, "erase_range result diverged");
        break;
      }
      case 2: {
        std::vector<std::uint8_t> bytes = src.take(n);
        for (std::size_t i = bytes.size(); i < n; ++i)
          bytes.push_back(static_cast<std::uint8_t>(i * 0x9Du ^ op));
        const bool ok = flash.program(address, bytes);
        // The reference splits the write at page boundaries itself.
        bool expect = true;
        for (std::size_t pos = 0; pos < n;) {
          const std::size_t at = address + pos;
          const std::size_t piece = std::min(
              n - pos, FlashModel::kPageSize - at % FlashModel::kPageSize);
          require(!program_log.empty() && program_log.front().first == at,
                  "page-program hook saw the wrong page");
          const auto fault = program_log.front().second;
          program_log.erase(program_log.begin());
          const std::size_t commit =
              fault ? std::min(fault->committed, piece) : piece;
          std::uint8_t* cells = ref.data() + (at - base);
          for (std::size_t i = 0; i < commit; ++i) cells[i] &= bytes[pos + i];
          if (fault) {
            expect = false;
            ++program_failures;
            if (commit < piece)
              cells[commit] &= static_cast<std::uint8_t>(
                  bytes[pos + commit] | fault->torn_keep_mask);
            bytes_programmed += commit + (commit < piece ? 1 : 0);
          } else {
            bytes_programmed += piece;
          }
          pos += piece;
        }
        require(ok == expect, "program result diverged");
        break;
      }
      case 3: {
        auto view = flash.view(address, n);
        require(std::equal(view.begin(), view.end(),
                           ref.begin() + static_cast<std::ptrdiff_t>(off)),
                "view diverged from the reference");
        break;
      }
      case 4:
        require(flash.read(address, n) == ref_bytes(off, n),
                "read diverged from the reference");
        break;
      case 5:
        require(flash.is_erased(address, n) == ref_erased(off, n),
                "is_erased diverged from the reference");
        break;
      default: {
        // Past the end, including lengths that wrap address + length.
        constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
        const std::size_t far = src.boolean() ? kMax - len : address;
        const std::size_t huge = kMax - off;
        const std::vector<std::uint8_t> two(2, 0);
        expect_out_of_range([&] { (void)flash.view(far, huge); }, "view");
        expect_out_of_range([&] { (void)flash.read(far, huge); }, "read");
        expect_out_of_range([&] { (void)flash.is_erased(far, huge); },
                            "is_erased");
        expect_out_of_range([&] { (void)flash.erase_range(far, huge); },
                            "erase_range");
        expect_out_of_range([&] { (void)flash.program(kMax - 1, two); },
                            "program");
        expect_out_of_range(
            [&] { (void)flash.erase_sector(FlashModel::kCapacity + off); },
            "erase_sector");
        break;
      }
    }
    require(erase_log.empty() && program_log.empty(),
            "the model called a fault hook the reference did not expect");
    require(flash.erase_count() == erases &&
                flash.erase_failures() == erase_failures &&
                flash.program_failures() == program_failures &&
                flash.bytes_programmed() == bytes_programmed,
            "flash counters diverged from the reference");

    // Byte-equal check. An erased reference sector is checked through
    // is_erased alone, which must not need the sector's storage.
    for (std::size_t s = 0; s < kWindow; s += kSector) {
      const bool erased = ref_erased(s, kSector);
      require(flash.is_erased(base + s, kSector) == erased,
              "sector erase state diverged at offset " + std::to_string(s));
      if (!erased) {
        auto view = flash.view(base + s, kSector);
        require(std::equal(view.begin(), view.end(),
                           ref.begin() + static_cast<std::ptrdiff_t>(s)),
                "sector bytes diverged at offset " + std::to_string(s));
      }
    }
  }
}

// Differential oracle: NodeAgent::receive_chunk vs a trivial in-memory
// model of "a set of stored chunks". The adversarial sequence includes
// out-of-range seqs, truncated and oversized payloads, CRC-corrupt
// packets, duplicates, checkpoints and brownout/reboot cycles; after
// every op the agent must agree with the model on status, bitmap,
// counters and finally the staged flash contents.
void node_agent_model(std::span<const std::uint8_t> data) {
  using RxStatus = ota::NodeAgent::RxStatus;
  testkit::ByteSource src{data};

  ota::FlashModel flash;
  ota::NodeAgent node{1, flash};
  const std::size_t stream_bytes = 1 + src.uint_below(481);
  const std::size_t total =
      (stream_bytes + ota::kDataPayload - 1) / ota::kDataPayload;
  node.begin_session(0xC0FFEE01u, stream_bytes);

  // The stream image is fixed up front: like the real AP, every valid
  // delivery of chunk `seq` carries the same bytes. (Re-programming a
  // chunk with different bytes after a bitmap rollback would trip the
  // flash write verify — NOR programming only clears bits.)
  std::vector<std::uint8_t> image(stream_bytes);
  for (std::size_t i = 0; i < image.size(); ++i)
    image[i] = static_cast<std::uint8_t>(src.u8() ^ (i * 37));

  auto chunk_bytes = [&](std::size_t seq) {
    return std::min(ota::kDataPayload, stream_bytes - seq * ota::kDataPayload);
  };
  auto chunk_of = [&](std::size_t seq) {
    const std::size_t off = seq * ota::kDataPayload;
    return std::vector<std::uint8_t>(
        image.begin() + static_cast<std::ptrdiff_t>(off),
        image.begin() + static_cast<std::ptrdiff_t>(off + chunk_bytes(seq)));
  };

  std::set<std::size_t> ever_stored;        // ever programmed to staging
  std::set<std::size_t> marked;             // current RAM bitmap
  std::set<std::size_t> checkpointed;       // bitmap in the flash checkpoint
  // begin_session persists the (empty) fresh bitmap.

  const std::size_t ops = src.uint_below(48);
  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint32_t kind = src.uint_below(16);
    if (kind == 0) {
      node.persist_session();
      checkpointed = marked;
      continue;
    }
    if (kind == 1) {
      node.reboot();
      require(!node.online(), "reboot must take the node offline");
      std::vector<std::uint8_t> probe(1, 0);
      require(node.receive_chunk(0, probe) == RxStatus::kNoSession,
              "offline node must answer kNoSession");
      require(node.poll_boot(), "poll_boot must bring the node back");
      // RAM state restores from the last checkpoint; staged data (flash)
      // survives untouched.
      marked = checkpointed;
      require(node.resume_count() > 0, "reboot with checkpoint must resume");
      continue;
    }

    const auto seq = static_cast<std::uint16_t>(
        src.uint_below(static_cast<std::uint32_t>(total) + 3));
    const bool in_range = seq < total;
    const std::size_t correct = in_range ? chunk_bytes(seq) : 0;
    std::size_t len =
        src.boolean() ? correct : src.uint_below(ota::kDataPayload + 4);
    std::vector<std::uint8_t> payload;
    if (in_range && len == correct) {
      payload = chunk_of(seq);
    } else {
      payload = src.take(len);
      payload.resize(len, static_cast<std::uint8_t>(0xA5u + seq));
    }
    const bool corrupted = src.uint_below(8) == 0;

    RxStatus status = node.receive_chunk(seq, payload, corrupted);
    RxStatus expected;
    if (corrupted || !in_range || len != correct) {
      expected = RxStatus::kCorrupt;
    } else if (marked.count(seq) != 0) {
      expected = RxStatus::kDuplicate;
    } else {
      expected = RxStatus::kStored;
    }
    require(status == expected,
            "receive_chunk status diverged from the model at seq " +
                std::to_string(seq));
    if (status == RxStatus::kStored) {
      marked.insert(seq);
      ever_stored.insert(seq);
    }
  }

  require(node.chunks_received() == marked.size(),
          "chunks_received diverged from the model");
  std::size_t bytes = 0;
  for (std::size_t seq : marked) bytes += chunk_bytes(seq);
  require(node.bytes_received() == bytes,
          "bytes_received diverged from the model");
  require(node.complete() == (marked.size() == total),
          "complete() diverged from the model");

  // kSack bitmap payloads agree with the model bit for bit.
  auto bitmap = node.window_bitmap(0, total);
  for (std::size_t seq = 0; seq < total; ++seq) {
    bool bit = (bitmap[seq / 8] >> (seq % 8)) & 1u;
    require(bit == (marked.count(seq) != 0),
            "window_bitmap diverged at seq " + std::to_string(seq));
  }

  // Every chunk ever stored is byte-identical in the staging region —
  // brownouts may drop bitmap marks, never staged flash data.
  auto staged = flash.view(ota::NodeAgent::kStagingBase, stream_bytes);
  for (std::size_t seq : ever_stored) {
    const std::size_t off = seq * ota::kDataPayload;
    const auto expect = chunk_of(seq);
    for (std::size_t i = 0; i < expect.size(); ++i)
      require(staged[off + i] == expect[i],
              "staged flash diverged at chunk " + std::to_string(seq));
  }
}

// End-to-end transfer under an adversarial fault plan. The reference
// model is the image itself: whatever the link/fault schedule does, the
// engine either reports success with the staging region byte-identical
// to the image, or reports a classified failure — never a success with
// corrupt staged bytes, never an unclassified outcome.
void transfer_adversarial(std::span<const std::uint8_t> data) {
  testkit::ByteSource src{data};

  const std::size_t image_len = 1 + src.uint_below(300);
  std::vector<std::uint8_t> image = src.take(image_len);
  image.resize(image_len);
  for (std::size_t i = image.size(); i-- > 0;)
    image[i] = static_cast<std::uint8_t>(image[i] ^ (0x5Au + i));

  sim::FaultPlan plan;
  plan.seed = src.u64();
  plan.corrupt_rate = src.unit() * 0.3;
  plan.duplicate_rate = src.unit() * 0.3;
  plan.reorder_rate = src.unit() * 0.3;
  plan.timeout_jitter = src.unit() * 0.2;
  if (src.boolean()) plan.brownout_at_byte = src.uint_below(
      static_cast<std::uint32_t>(image_len) + 1);
  if (src.boolean()) {
    channel::GilbertElliottParams burst;
    burst.p_enter_bad = src.real_in(0.0, 0.3);
    burst.p_exit_bad = src.real_in(0.05, 0.9);
    burst.loss_bad = src.real_in(0.3, 1.0);
    plan.burst = burst;
  }
  plan.page_program_failure_rate = src.boolean() ? src.unit() * 0.05 : 0.0;
  sim::FaultInjector faults{plan};

  ota::FlashModel flash;
  ota::NodeAgent node{7, flash, &faults};

  ota::TransferPolicy policy;
  policy.mode =
      src.boolean() ? ota::AckMode::kSelectiveAck : ota::AckMode::kStopAndWait;
  policy.window = 1 + src.uint_below(24);
  policy.max_retries = 4 + src.uint_below(16);
  if (src.boolean())
    policy.deadline = Seconds{src.real_in(0.05, 5.0)};

  const std::uint64_t link_seed = src.u64();
  ota::OtaLink link{ota::ota_link_params(), Dbm{src.real_in(-131.0, -100.0)},
                    link_seed};
  if (plan.burst) link.set_burst(*plan.burst);

  ota::AccessPoint ap;
  ota::UpdateOutcome out =
      ap.transfer(image, 7, link, policy, &node, &faults);

  require(out.success == (out.failure == ota::UpdateFailure::kNone),
          "success flag and failure cause disagree");
  require(out.link_seed == link_seed, "outcome must record the link seed");
  require(out.total_time.value() >= out.airtime.value(),
          "wall-clock cannot be below airtime");
  require(out.airtime.value() >= 0.0, "negative airtime");
  require(out.node_energy.value() >= 0.0, "negative node energy");

  const std::size_t chunks =
      (image_len + ota::kDataPayload - 1) / ota::kDataPayload;
  if (out.success) {
    require(out.sends_per_chunk.size() == chunks,
            "sends_per_chunk must cover every chunk");
    for (std::size_t seq = 0; seq < chunks; ++seq)
      require(out.sends_per_chunk[seq] >= 1,
              "successful transfer with an unsent chunk");
    // Re-delivery after a brownout can re-store chunks, never fewer.
    require(out.data_packets >= chunks,
            "successful transfer stored fewer chunks than the image has");
    auto staged = flash.read(ota::NodeAgent::kStagingBase, image.size());
    require(staged == image, "staged stream differs from the image");
  }
}

// Reference decoder: appends one byte at a time and checks every bound
// as it goes. It is the straightforward reading of the token format
// (minus an up-front reserve, which is only a capacity hint), kept as the
// oracle for the pre-sized lzo_decompress.
std::optional<std::vector<std::uint8_t>> reference_lzo_decompress(
    std::span<const std::uint8_t> input, std::size_t expected_size) {
  std::vector<std::uint8_t> out;
  std::size_t pos = 0;
  while (pos < input.size()) {
    std::uint8_t token = input[pos++];
    if (token < 0x20) {
      std::size_t run = static_cast<std::size_t>(token) + 1;
      if (pos + run > input.size()) return std::nullopt;
      if (out.size() + run > expected_size) return std::nullopt;
      out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(pos),
                 input.begin() + static_cast<std::ptrdiff_t>(pos + run));
      pos += run;
    } else {
      if (pos + 2 > input.size()) return std::nullopt;
      std::size_t len =
          static_cast<std::size_t>(token) - 0x20 + ota::kMinMatch;
      std::size_t offset = static_cast<std::size_t>(input[pos]) |
                           (static_cast<std::size_t>(input[pos + 1]) << 8);
      pos += 2;
      if (offset == 0 || offset > out.size()) return std::nullopt;
      if (out.size() + len > expected_size) return std::nullopt;
      std::size_t src = out.size() - offset;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    }
  }
  if (out.size() != expected_size) return std::nullopt;
  return out;
}

// Differential oracle for lzo_decompress: on raw token soup, and on valid
// streams that are then truncated, bit-flipped (bad tokens and offsets)
// or paired with a wrong expected size (short, long, 0xFFFFFFFF), the
// decoder must return exactly what the reference returns — the same
// bytes, or nullopt for nullopt.
void lzo_decode_differential(std::span<const std::uint8_t> data) {
  testkit::ByteSource src{data};
  std::vector<std::uint8_t> stream;
  std::size_t expected = 0;
  const std::uint8_t mode = src.u8() % 4;
  if (mode == 0) {
    expected = src.u16();
    stream = src.rest();
  } else {
    // Plaintext with literal, constant and back-copy runs, so the
    // compressor emits overlapping and distant matches.
    std::vector<std::uint8_t> plain;
    const std::size_t ops = src.u8() % 32;
    for (std::size_t op = 0; op < ops; ++op) {
      const std::uint8_t kind = src.u8() % 3;
      if (kind == 0) {
        auto lit = src.take(1 + src.u8() % 40);
        plain.insert(plain.end(), lit.begin(), lit.end());
      } else if (kind == 1) {
        const std::size_t len = 1 + src.u8();
        plain.insert(plain.end(), len, src.u8());
      } else if (!plain.empty()) {
        const std::size_t back = 1 + src.u16() % plain.size();
        const std::size_t len = 1 + src.u8();
        const std::size_t from = plain.size() - back;
        for (std::size_t i = 0; i < len; ++i) plain.push_back(plain[from + i]);
      }
    }
    stream = ota::lzo_compress(plain);
    expected = plain.size();
    require(ota::lzo_decompress(stream, expected) == plain,
            "valid stream did not round-trip");
    if (mode == 1) {
      stream.resize(src.u16() % (stream.size() + 1));
    } else if (mode == 2) {
      const std::size_t flips = 1 + src.u8() % 4;
      for (std::size_t f = 0; f < flips && !stream.empty(); ++f) {
        const std::size_t at = src.u16() % stream.size();
        stream[at] ^= static_cast<std::uint8_t>(src.u8() | 1u);
      }
    } else {
      switch (src.u8() % 4) {
        case 0:
          expected += 1 + src.u8() % 8;
          break;
        case 1:
          expected -= std::min<std::size_t>(expected, 1 + src.u8() % 8);
          break;
        case 2:
          expected = 0xFFFFFFFFu;
          break;
        default:
          expected = ota::kMaxMatch * stream.size() + src.u8() % 2;
          break;
      }
    }
  }
  require(ota::lzo_decompress(stream, expected) ==
              reference_lzo_decompress(stream, expected),
          "lzo_decompress diverged from the reference decoder");
}

}  // namespace

void register_ota_harnesses() {
  auto& reg = testkit::HarnessRegistry::instance();
  reg.add({"ota.flash", flash_differential, /*max_len=*/512});
  reg.add({"ota.node_agent", node_agent_model, /*max_len=*/512});
  reg.add({"ota.transfer", transfer_adversarial, /*max_len=*/256});
  reg.add({"ota.lzo_decode", lzo_decode_differential, /*max_len=*/512});
}

}  // namespace tinysdr::fuzz
