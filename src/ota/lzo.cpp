#include "ota/lzo.hpp"

#include <array>
#include <cstring>

#include "common/crc.hpp"
#include "obs/metrics.hpp"

namespace tinysdr::ota {

namespace {

constexpr std::size_t kHashBits = 13;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::size_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

std::vector<std::uint8_t> lzo_compress(std::span<const std::uint8_t> input) {
  std::vector<std::uint8_t> out;
  out.reserve(input.size() / 2 + 16);

  // Hash table of last-seen positions for 4-byte prefixes (the "small
  // dictionary" miniLZO keeps; 2^13 entries * 4 B < 16 KiB auxiliary RAM).
  std::array<std::uint32_t, kHashSize> table{};
  constexpr std::uint32_t kUnset = 0xFFFFFFFF;
  table.fill(kUnset);

  std::size_t literal_start = 0;
  std::size_t pos = 0;

  auto flush_literals = [&](std::size_t end) {
    std::size_t run_start = literal_start;
    while (run_start < end) {
      std::size_t run =
          std::min<std::size_t>(kMaxLiteralRun, end - run_start);
      out.push_back(static_cast<std::uint8_t>(run - 1));
      out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(run_start),
                 input.begin() + static_cast<std::ptrdiff_t>(run_start + run));
      run_start += run;
    }
    literal_start = end;
  };

  while (pos + kMinMatch <= input.size()) {
    std::uint32_t prefix = read_u32(&input[pos]);
    std::size_t h = hash4(prefix);
    std::uint32_t candidate = table[h];
    table[h] = static_cast<std::uint32_t>(pos);

    bool matched = false;
    if (candidate != kUnset) {
      std::size_t cand = candidate;
      std::size_t offset = pos - cand;
      if (offset >= 1 && offset <= kMaxOffset &&
          read_u32(&input[cand]) == prefix) {
        // Extend the match.
        std::size_t len = kMinMatch;
        std::size_t max_len =
            std::min(kMaxMatch, input.size() - pos);
        while (len < max_len && input[cand + len] == input[pos + len]) ++len;

        flush_literals(pos);
        out.push_back(
            static_cast<std::uint8_t>(0x20 + (len - kMinMatch)));
        out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
        out.push_back(static_cast<std::uint8_t>(offset >> 8));

        // Seed the table sparsely inside the match (every 4th position) —
        // keeps compression strong on periodic data without O(n*len) cost.
        for (std::size_t k = 1; k < len && pos + k + kMinMatch <= input.size();
             k += 4)
          table[hash4(read_u32(&input[pos + k]))] =
              static_cast<std::uint32_t>(pos + k);

        pos += len;
        literal_start = pos;
        matched = true;
      }
    }
    if (!matched) ++pos;
  }
  flush_literals(input.size());
  return out;
}

namespace {

/// The decoder proper: fills `out` by index. False on a truncated token,
/// an offset before the start of the output, output past `out.size()`,
/// or output short of it.
bool decompress_into(std::span<const std::uint8_t> input,
                     std::span<std::uint8_t> out) {
  const std::size_t in_size = input.size();
  const std::size_t cap = out.size();
  std::size_t pos = 0;
  std::size_t at = 0;
  while (pos < in_size) {
    std::uint8_t token = input[pos++];
    if (token < 0x20) {
      std::size_t run = static_cast<std::size_t>(token) + 1;
      if (pos + run > in_size || at + run > cap) return false;
      std::memcpy(out.data() + at, input.data() + pos, run);
      pos += run;
      at += run;
    } else {
      if (pos + 2 > in_size) return false;
      std::size_t len = static_cast<std::size_t>(token) - 0x20 + kMinMatch;
      std::size_t offset = static_cast<std::size_t>(input[pos]) |
                           (static_cast<std::size_t>(input[pos + 1]) << 8);
      pos += 2;
      if (offset == 0 || offset > at || at + len > cap) return false;
      std::uint8_t* dst = out.data() + at;
      const std::uint8_t* src = dst - offset;
      if (offset >= len) {
        std::memcpy(dst, src, len);
      } else {
        // Overlapping match (offset < len): the forward byte copy
        // replicates, which is the RLE trick LZ77 decoders rely on.
        for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
      }
      at += len;
    }
  }
  return at == cap;
}

/// A compressed block as framed on the air, with its payload in place.
struct BlockRef {
  std::uint32_t original_size;
  std::uint16_t crc16;
  std::span<const std::uint8_t> data;
};

/// Decode blocks back to back into one image buffer, sized once. Each
/// block's size is bounded by what its payload can decode to before the
/// buffer is allocated.
std::optional<std::vector<std::uint8_t>> decode_blocks(
    std::span<const BlockRef> blocks) {
  std::size_t total = 0;
  for (const auto& b : blocks) {
    if (b.original_size > kMaxMatch * b.data.size()) return std::nullopt;
    total += b.original_size;
  }
  std::vector<std::uint8_t> image(total);
  std::size_t at = 0;
  for (const auto& b : blocks) {
    if (crc16_ccitt(b.data) != b.crc16 ||
        !decompress_into(b.data, std::span(image).subspan(at, b.original_size)))
      return std::nullopt;
    at += b.original_size;
  }
  return image;
}

std::uint32_t read_le32(std::span<const std::uint8_t> p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

constexpr std::size_t kFrameHeader = 10;

}  // namespace

std::optional<std::vector<std::uint8_t>> lzo_decompress(
    std::span<const std::uint8_t> input, std::size_t expected_size) {
  // Each token yields at most kMaxMatch bytes from at least one input
  // byte: a larger size cannot decode, so do not allocate for it.
  if (expected_size > kMaxMatch * input.size()) return std::nullopt;
  std::vector<std::uint8_t> out(expected_size);
  if (!decompress_into(input, out)) return std::nullopt;
  return out;
}

std::vector<CompressedBlock> compress_blocks(
    std::span<const std::uint8_t> image, std::size_t block_size) {
  // Counts AP-side compressions: a campaign compresses its image once,
  // however many nodes and passes it runs.
  if (auto* m = obs::metrics()) m->counter("ota.images_compressed").add();
  std::vector<CompressedBlock> blocks;
  for (std::size_t start = 0; start < image.size(); start += block_size) {
    std::size_t len = std::min(block_size, image.size() - start);
    CompressedBlock block;
    block.original_size = static_cast<std::uint32_t>(len);
    block.data = lzo_compress(image.subspan(start, len));
    block.crc16 = crc16_ccitt(block.data);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

std::optional<std::vector<std::uint8_t>> decompress_blocks(
    const std::vector<CompressedBlock>& blocks) {
  std::vector<BlockRef> refs;
  refs.reserve(blocks.size());
  for (const auto& b : blocks)
    refs.push_back({b.original_size, b.crc16, b.data});
  return decode_blocks(refs);
}

std::vector<std::uint8_t> frame_blocks(
    const std::vector<CompressedBlock>& blocks) {
  std::vector<std::uint8_t> stream;
  stream.reserve(compressed_size(blocks) + blocks.size() * kFrameHeader);
  auto push32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      stream.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  };
  for (const auto& b : blocks) {
    push32(b.original_size);
    push32(static_cast<std::uint32_t>(b.data.size()));
    stream.push_back(static_cast<std::uint8_t>(b.crc16 & 0xFF));
    stream.push_back(static_cast<std::uint8_t>(b.crc16 >> 8));
    stream.insert(stream.end(), b.data.begin(), b.data.end());
  }
  return stream;
}

std::optional<std::vector<std::uint8_t>> decompress_stream(
    std::span<const std::uint8_t> stream) {
  std::vector<BlockRef> refs;
  std::size_t pos = 0;
  while (pos + kFrameHeader <= stream.size()) {
    BlockRef b;
    b.original_size = read_le32(stream.subspan(pos));
    std::uint32_t clen = read_le32(stream.subspan(pos + 4));
    b.crc16 = static_cast<std::uint16_t>(stream[pos + 8] |
                                         (stream[pos + 9] << 8));
    pos += kFrameHeader;
    if (pos + clen > stream.size()) break;
    b.data = stream.subspan(pos, clen);
    pos += clen;
    refs.push_back(b);
  }
  return decode_blocks(refs);
}

std::size_t compressed_size(const std::vector<CompressedBlock>& blocks) {
  std::size_t total = 0;
  for (const auto& b : blocks) total += b.data.size();
  return total;
}

}  // namespace tinysdr::ota
