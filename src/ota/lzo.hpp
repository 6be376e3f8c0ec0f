// miniLZO-class LZ77 codec for OTA firmware compression (paper §3.4).
//
// The paper compresses update images with miniLZO on the access point and
// decompresses on the MSP432. We implement a codec from scratch with the
// same operational profile:
//   - compression uses a small hash table (16 KiB) — AP side;
//   - decompression needs ZERO working memory beyond the output buffer —
//     exactly the constraint that lets the MCU decompress 30 kB blocks
//     in SRAM;
//   - byte-oriented tokens, single pass, no entropy coder.
//
// Token format ("tlzo"):
//   0x00..0x1F : literal run, count = token + 1 (1..32), bytes follow
//   0x20..0xFF : match, length = token - 0x20 + 4 (4..227), followed by a
//                2-byte little-endian backward offset (1..65535)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace tinysdr::ota {

inline constexpr std::size_t kMinMatch = 4;
inline constexpr std::size_t kMaxMatch = 227;
inline constexpr std::size_t kMaxOffset = 65535;
inline constexpr std::size_t kMaxLiteralRun = 32;

/// Compress a buffer. Output is never much larger than input
/// (worst case: input + input/32 + 1).
[[nodiscard]] std::vector<std::uint8_t> lzo_compress(
    std::span<const std::uint8_t> input);

/// Decompress; returns nullopt on malformed input (bad offset/overrun).
/// `expected_size` bounds the output (the block header carries it). A size
/// no stream of `input.size()` bytes can decode to is refused before any
/// allocation.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> lzo_decompress(
    std::span<const std::uint8_t> input, std::size_t expected_size);

/// Worst-case compressed size for an input length.
[[nodiscard]] constexpr std::size_t lzo_worst_case(std::size_t n) {
  return n + n / kMaxLiteralRun + 2;
}

// ----------------------------------------------------------------- blocks

/// The paper splits images into 30 kB blocks so each fits the MCU's SRAM
/// during decompression (§3.4).
inline constexpr std::size_t kOtaBlockSize = 30 * 1024;

struct CompressedBlock {
  std::uint32_t original_size = 0;
  std::uint16_t crc16 = 0;  ///< CRC over the *compressed* payload
  std::vector<std::uint8_t> data;
};

/// Split + compress an image into blocks.
[[nodiscard]] std::vector<CompressedBlock> compress_blocks(
    std::span<const std::uint8_t> image,
    std::size_t block_size = kOtaBlockSize);

/// Reassemble an image from blocks; nullopt on CRC or decode failure.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> decompress_blocks(
    const std::vector<CompressedBlock>& blocks);

/// Frame blocks into the OTA transfer stream: per block a 10-byte
/// little-endian header (original size u32, compressed size u32, CRC-16)
/// followed by the compressed payload.
[[nodiscard]] std::vector<std::uint8_t> frame_blocks(
    const std::vector<CompressedBlock>& blocks);

/// Reassemble an image from a framed stream, reading the payloads in
/// place. A trailing partial frame is ignored; nullopt on CRC or decode
/// failure.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> decompress_stream(
    std::span<const std::uint8_t> stream);

/// Total compressed bytes across blocks (what goes over the air).
[[nodiscard]] std::size_t compressed_size(
    const std::vector<CompressedBlock>& blocks);

}  // namespace tinysdr::ota
