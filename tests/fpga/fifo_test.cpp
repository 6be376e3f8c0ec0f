#include "fpga/fifo.hpp"

#include <gtest/gtest.h>

namespace tinysdr::fpga {
namespace {

TEST(SampleFifo, CapacityFromBramBudget) {
  SampleFifo fifo;  // default 126 kB
  EXPECT_EQ(fifo.capacity(), 126u * 1024u / 4u);
}

TEST(SampleFifo, FifoOrder) {
  SampleFifo fifo{64};
  fifo.push(radio::IqWord{1, 2, false, false});
  fifo.push(radio::IqWord{3, 4, false, false});
  auto a = fifo.pop();
  auto b = fifo.pop();
  EXPECT_EQ(a.i, 1);
  EXPECT_EQ(b.i, 3);
  EXPECT_TRUE(fifo.empty());
}

TEST(SampleFifo, UnderflowThrows) {
  SampleFifo fifo{64};
  EXPECT_THROW((void)fifo.pop(), std::underflow_error);
}

TEST(SampleFifo, OverflowDropsAndCounts) {
  SampleFifo fifo{8};  // 2 entries
  fifo.push(radio::IqWord{1, 0, false, false});
  fifo.push(radio::IqWord{2, 0, false, false});
  EXPECT_TRUE(fifo.full());
  fifo.push(radio::IqWord{3, 0, false, false});
  EXPECT_EQ(fifo.overflow_count(), 1u);
  EXPECT_EQ(fifo.size(), 2u);
  // Data already queued is intact.
  EXPECT_EQ(fifo.pop().i, 1);
}

TEST(SampleFifo, BufferSecondsAt4MHz) {
  SampleFifo fifo;
  // 32256 entries at 4 MHz ~ 8 ms of signal.
  EXPECT_NEAR(fifo.buffer_seconds(4e6) * 1e3, 8.06, 0.1);
}

TEST(SampleFifo, BufferHoldsMultipleLoraSymbols) {
  // An SF12 symbol at critical sampling is 4096 samples; the FIFO must
  // buffer several (needed by the demodulator pipeline).
  SampleFifo fifo;
  EXPECT_GT(fifo.capacity(), 4096u * 4u);
}

TEST(SampleFifo, ZeroCapacityRejected) {
  EXPECT_THROW(SampleFifo{0}, std::invalid_argument);
}

TEST(SampleFifo, ClearEmptiesWithoutTouchingOverflowCount) {
  SampleFifo fifo{4};  // 1 entry
  fifo.push(radio::IqWord{1, 0, false, false});
  fifo.push(radio::IqWord{2, 0, false, false});
  EXPECT_EQ(fifo.overflow_count(), 1u);
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.overflow_count(), 1u);
}

}  // namespace
}  // namespace tinysdr::fpga
