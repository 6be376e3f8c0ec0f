#include "ota/lzo.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fpga/bitstream.hpp"

namespace tinysdr::ota {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = rng.next_byte();
  return v;
}

TEST(Lzo, EmptyInput) {
  auto compressed = lzo_compress({});
  EXPECT_TRUE(compressed.empty());
  auto back = lzo_decompress(compressed, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(Lzo, RoundTripRandomData) {
  auto data = random_bytes(10000, 1);
  auto compressed = lzo_compress(data);
  auto back = lzo_decompress(compressed, data.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
  // Random data: small expansion only.
  EXPECT_LE(compressed.size(), lzo_worst_case(data.size()));
}

TEST(Lzo, RoundTripZeros) {
  std::vector<std::uint8_t> zeros(100000, 0x00);
  auto compressed = lzo_compress(zeros);
  EXPECT_LT(compressed.size(), zeros.size() / 50);  // heavy compression
  auto back = lzo_decompress(compressed, zeros.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, zeros);
}

TEST(Lzo, RoundTripPeriodicData) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 5000; ++i)
    data.push_back(static_cast<std::uint8_t>(i % 23));
  auto compressed = lzo_compress(data);
  EXPECT_LT(compressed.size(), data.size() / 5);
  auto back = lzo_decompress(compressed, data.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Lzo, RoundTripShortInputs) {
  for (std::size_t n : {1ul, 2ul, 3ul, 4ul, 5ul, 31ul, 32ul, 33ul}) {
    auto data = random_bytes(n, n);
    auto back = lzo_decompress(lzo_compress(data), n);
    ASSERT_TRUE(back.has_value()) << n;
    EXPECT_EQ(*back, data) << n;
  }
}

TEST(Lzo, OverlappingMatchRle) {
  // "ababab..." exercises offset < length replication.
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 1000; ++i) data.push_back(i % 2 ? 0xAB : 0xCD);
  auto compressed = lzo_compress(data);
  EXPECT_LT(compressed.size(), 50u);
  auto back = lzo_decompress(compressed, data.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Lzo, DecompressRejectsCorruption) {
  auto data = random_bytes(5000, 3);
  // Mix in compressible structure so matches exist.
  for (std::size_t i = 1000; i < 3000; ++i) data[i] = data[i - 500];
  auto compressed = lzo_compress(data);
  // Truncated stream.
  std::vector<std::uint8_t> truncated(compressed.begin(),
                                      compressed.end() - 5);
  EXPECT_FALSE(lzo_decompress(truncated, data.size()).has_value());
  // Wrong expected size.
  EXPECT_FALSE(lzo_decompress(compressed, data.size() - 1).has_value());
  EXPECT_FALSE(lzo_decompress(compressed, data.size() + 1).has_value());
}

TEST(Lzo, DecompressRejectsBadOffset) {
  // Hand-craft a match pointing before the start of output.
  std::vector<std::uint8_t> bogus{0x00, 0x41,        // literal 'A'
                                  0x24, 0x05, 0x00}; // match len 8, offset 5
  EXPECT_FALSE(lzo_decompress(bogus, 9).has_value());
}

TEST(Lzo, PropertyFuzzRoundTrip) {
  // Mixed-entropy fuzz across seeds: every buffer must round-trip.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng{seed + 100};
    std::vector<std::uint8_t> data;
    std::size_t target = 500 + rng.next_below(20000);
    while (data.size() < target) {
      switch (rng.next_below(3)) {
        case 0: {  // random run
          std::size_t run = 1 + rng.next_below(50);
          for (std::size_t i = 0; i < run; ++i)
            data.push_back(rng.next_byte());
          break;
        }
        case 1: {  // constant run
          std::size_t run = 1 + rng.next_below(300);
          std::uint8_t b = rng.next_byte();
          for (std::size_t i = 0; i < run; ++i) data.push_back(b);
          break;
        }
        default: {  // copy from earlier (self-similarity)
          if (data.empty()) break;
          std::size_t back = 1 + rng.next_below(
              static_cast<std::uint32_t>(std::min<std::size_t>(data.size(), 5000)));
          std::size_t run = 1 + rng.next_below(200);
          std::size_t src = data.size() - back;
          for (std::size_t i = 0; i < run; ++i)
            data.push_back(data[src + i]);
          break;
        }
      }
    }
    auto back = lzo_decompress(lzo_compress(data), data.size());
    ASSERT_TRUE(back.has_value()) << "seed " << seed;
    EXPECT_EQ(*back, data) << "seed " << seed;
  }
}

TEST(Lzo, RefusesSizesTheInputCannotReach) {
  auto data = random_bytes(4000, 12);
  for (std::size_t i = 0; i < data.size(); i += 2) data[i] = 0;
  auto compressed = lzo_compress(data);
  // A header read from flash can claim any u32; no allocation of that
  // size may happen for a stream this short.
  EXPECT_FALSE(lzo_decompress(compressed, 0xFFFFFFFFu).has_value());
  EXPECT_FALSE(lzo_decompress({}, 0xFFFFFFFFu).has_value());
  EXPECT_FALSE(lzo_decompress({}, 1).has_value());
  EXPECT_FALSE(
      lzo_decompress(compressed, kMaxMatch * compressed.size() + 1)
          .has_value());
  // Sizes under the bound still decode: a literal plus one overlapping
  // kMaxMatch-byte match expands 5 input bytes to 228.
  std::vector<std::uint8_t> rle{0x00, 0x7A, 0xFF, 0x01, 0x00};
  auto back = lzo_decompress(rle, 1 + kMaxMatch);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, std::vector<std::uint8_t>(1 + kMaxMatch, 0x7A));
}

TEST(LzoBlocks, FramedStreamRoundTrip) {
  auto data = random_bytes(70 * 1024, 13);
  for (std::size_t i = 0; i < data.size(); i += 3) data[i] = 0;
  auto blocks = compress_blocks(data);
  auto stream = frame_blocks(blocks);
  EXPECT_EQ(stream.size(), compressed_size(blocks) + 10 * blocks.size());
  auto back = decompress_stream(stream);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);

  // A trailing partial frame is ignored; the blocks before it decode.
  auto first = frame_blocks({blocks[0]});
  const auto second = static_cast<std::ptrdiff_t>(first.size());
  first.insert(first.end(), stream.begin() + second,
               stream.begin() + second + 15);
  auto head = decompress_stream(first);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(*head, std::vector<std::uint8_t>(
                       data.begin(), data.begin() + blocks[0].original_size));

  // A corrupt payload fails its block CRC.
  stream[10 + 5] ^= 0x40;
  EXPECT_FALSE(decompress_stream(stream).has_value());
}

TEST(LzoBlocks, RoundTripAcrossBlockBoundaries) {
  auto data = random_bytes(100 * 1024, 9);
  for (std::size_t i = 0; i < data.size(); i += 3) data[i] = 0;  // structure
  auto blocks = compress_blocks(data);
  EXPECT_EQ(blocks.size(), (data.size() + kOtaBlockSize - 1) / kOtaBlockSize);
  auto back = decompress_blocks(blocks);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(LzoBlocks, CrcDetectsBlockCorruption) {
  auto data = random_bytes(64 * 1024, 10);
  auto blocks = compress_blocks(data);
  blocks[1].data[10] ^= 0xFF;
  EXPECT_FALSE(decompress_blocks(blocks).has_value());
}

TEST(LzoBlocks, BlockSizeRespectsMcuBudget) {
  // Every block's decompressed size fits the paper's 30 kB SRAM buffer.
  auto data = random_bytes(200 * 1024, 11);
  auto blocks = compress_blocks(data);
  for (const auto& b : blocks) EXPECT_LE(b.original_size, kOtaBlockSize);
}

TEST(LzoCalibration, LoraBitstreamCompressesToRoughly99kB) {
  // §5.3: "our LoRa program compresses to 99 kB and BLE to 40 kB".
  Rng rng{42};
  auto lora = fpga::generate_bitstream(fpga::lora_rx_design(8),
                                       fpga::DeviceSpec{}, rng);
  auto blocks = compress_blocks(lora.data);
  double kb = static_cast<double>(compressed_size(blocks)) / 1024.0;
  EXPECT_NEAR(kb, 99.0, 15.0);
}

TEST(LzoCalibration, BleBitstreamCompressesToRoughly40kB) {
  Rng rng{43};
  auto ble = fpga::generate_bitstream(fpga::ble_tx_design(),
                                      fpga::DeviceSpec{}, rng);
  auto blocks = compress_blocks(ble.data);
  double kb = static_cast<double>(compressed_size(blocks)) / 1024.0;
  EXPECT_NEAR(kb, 40.0, 10.0);
}

TEST(LzoCalibration, McuProgramCompressesToRoughly24kB) {
  // §5.3: MCU programs ~78 kB compress to ~24 kB.
  Rng rng{44};
  auto mcu = fpga::generate_mcu_program("lora_mcu", 78 * 1024, rng);
  auto blocks = compress_blocks(mcu.data);
  double kb = static_cast<double>(compressed_size(blocks)) / 1024.0;
  EXPECT_NEAR(kb, 24.0, 8.0);
}

}  // namespace
}  // namespace tinysdr::ota
