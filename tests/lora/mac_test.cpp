#include "lora/mac.hpp"

#include <gtest/gtest.h>

namespace tinysdr::lora {
namespace {

AppKey test_key() {
  AppKey k{};
  for (std::size_t i = 0; i < k.size(); ++i)
    k[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return k;
}

/// An OTAA device that has joined `net`.
MacDevice joined_device(MacNetwork& net, std::uint64_t dev_eui) {
  auto dev = MacDevice::otaa(dev_eui, test_key());
  auto accept = net.handle_join(dev.join_request());
  EXPECT_TRUE(accept.has_value() && dev.handle_join_accept(*accept));
  return dev;
}

TEST(MacFrame, SerializeParseRoundTrip) {
  MacFrame f;
  f.type = MacMessageType::kUnconfirmedUp;
  f.dev_addr = 0x01020304;
  f.fcnt = 4242;
  f.fport = 7;
  f.payload = {1, 2, 3};
  f.mic = 0xAABBCCDD;
  auto bytes = f.serialize();
  auto parsed = MacFrame::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dev_addr, f.dev_addr);
  EXPECT_EQ(parsed->fcnt, f.fcnt);
  EXPECT_EQ(parsed->fport, f.fport);
  EXPECT_EQ(parsed->payload, f.payload);
  EXPECT_EQ(parsed->mic, f.mic);
}

TEST(MacFrame, RejectsShortFrames) {
  std::vector<std::uint8_t> tiny(5, 0);
  EXPECT_FALSE(MacFrame::parse(tiny).has_value());
}

TEST(OtaaDevice, FullJoinFlow) {
  auto dev = MacDevice::otaa(0xDEADBEEF12345678ULL, test_key());
  EXPECT_FALSE(dev.joined());
  EXPECT_THROW((void)dev.uplink(std::vector<std::uint8_t>{1}),
               std::logic_error);

  MacNetwork net{test_key()};
  auto accept = net.handle_join(dev.join_request());
  ASSERT_TRUE(accept.has_value());
  ASSERT_TRUE(dev.handle_join_accept(*accept));
  EXPECT_TRUE(dev.joined());
  EXPECT_NE(dev.dev_addr(), 0u);

  auto frame = dev.uplink(std::vector<std::uint8_t>{9, 8, 7});
  EXPECT_TRUE(net.handle_uplink(frame).has_value());
}

TEST(OtaaDevice, JoinAcceptWithWrongKeyRejected) {
  auto dev = MacDevice::otaa(1, test_key());
  AppKey wrong{};
  MacNetwork net{wrong};
  auto accept = net.handle_join(dev.join_request());
  // Network can't validate the request MIC with the wrong key.
  EXPECT_FALSE(accept.has_value());
}

TEST(MacNetwork, CorruptedMicRejected) {
  MacNetwork net{test_key()};
  auto dev = joined_device(net, 5);
  auto frame = dev.uplink(std::vector<std::uint8_t>{1, 2, 3});
  frame[frame.size() - 1] ^= 0xFF;
  EXPECT_FALSE(net.handle_uplink(frame).has_value());
}

TEST(MacNetwork, ReplayRejected) {
  MacNetwork net{test_key()};
  auto dev = joined_device(net, 5);
  auto f1 = dev.uplink(std::vector<std::uint8_t>{1});
  auto f2 = dev.uplink(std::vector<std::uint8_t>{2});
  EXPECT_TRUE(net.handle_uplink(f1).has_value());
  EXPECT_TRUE(net.handle_uplink(f2).has_value());
  EXPECT_FALSE(net.handle_uplink(f1).has_value());  // replayed
}

TEST(MacDevice, FrameCounterIncrements) {
  MacNetwork net{test_key()};
  auto dev = joined_device(net, 9);
  EXPECT_EQ(dev.uplink_counter(), 0u);
  (void)dev.uplink(std::vector<std::uint8_t>{1});
  (void)dev.uplink(std::vector<std::uint8_t>{2});
  EXPECT_EQ(dev.uplink_counter(), 2u);
}

TEST(ReceiveWindows, FeasibleWithTable4Timings) {
  // The paper: "our timings are well within the requirements for LoRaWAN
  // specifications." TX->RX 45 us + retune 220 us << 1 s RX1 delay.
  ReceiveWindows windows;
  radio::TimingModel timing;
  EXPECT_TRUE(windows.feasible(timing));
}

TEST(ReceiveWindows, InfeasibleWithSlowRadio) {
  ReceiveWindows windows;
  radio::TimingModel slow;
  slow.tx_to_rx = Seconds{2.0};
  EXPECT_FALSE(windows.feasible(slow));
}

}  // namespace
}  // namespace tinysdr::lora
