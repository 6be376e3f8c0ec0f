#include "flow/blocks.hpp"
#include "flow/graph.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "dsp/fft.hpp"

namespace tinysdr::flow {
namespace {

dsp::Samples random_samples(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  dsp::Samples out(n);
  for (auto& s : out)
    s = dsp::Complex{static_cast<float>(rng.next_gaussian()),
                     static_cast<float>(rng.next_gaussian())};
  return out;
}

TEST(FlowGraph, SourceToSinkPassthrough) {
  FlowGraph graph;
  auto data = random_samples(5000, 1);
  graph.add<VectorSource>(data);
  auto* sink = graph.add<VectorSink>();
  auto report = graph.run();
  ASSERT_TRUE(report);
  EXPECT_EQ(report.state, RunState::kDrained);
  ASSERT_EQ(sink->data().size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(sink->data()[i], data[i]);
}

TEST(FlowGraph, EmptyGraphRunsTrivially) {
  FlowGraph graph;
  EXPECT_TRUE(graph.run());
}

TEST(FlowGraph, NcoSourceToneThroughProbe) {
  FlowGraph graph;
  graph.add<NcoSource>(0.1, 10000);
  auto* probe = graph.add<PowerProbe>();
  ASSERT_TRUE(graph.run());
  EXPECT_EQ(probe->samples(), 10000u);
  EXPECT_NEAR(probe->mean_power(), 1.0, 0.01);
  EXPECT_NEAR(probe->peak(), 1.0, 0.01);
}

TEST(FlowGraph, FirBlockMatchesDirectFilter) {
  auto taps = dsp::design_lowpass(14, 0.2);
  auto data = random_samples(4096, 2);

  FlowGraph graph;
  graph.add<VectorSource>(data);
  graph.add<FirBlock>(taps);
  auto* sink = graph.add<VectorSink>();
  ASSERT_TRUE(graph.run());

  dsp::FirFilter direct{taps};
  auto expected = direct.filter(data);
  ASSERT_EQ(sink->data().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(std::memcmp(&sink->data()[i], &expected[i],
                          sizeof(dsp::Complex)),
              0)
        << i;
}

TEST(FlowGraph, DecimatorKeepsEveryNth) {
  dsp::Samples ramp;
  for (int i = 0; i < 100; ++i)
    ramp.push_back(dsp::Complex{static_cast<float>(i), 0});
  FlowGraph graph;
  graph.add<VectorSource>(ramp);
  graph.add<DecimatorBlock>(4);
  auto* sink = graph.add<VectorSink>();
  ASSERT_TRUE(graph.run());
  ASSERT_EQ(sink->data().size(), 25u);
  for (std::size_t i = 0; i < 25; ++i)
    EXPECT_EQ(sink->data()[i].real(), static_cast<float>(i * 4));
}

TEST(FlowGraph, DecimatorRejectsZeroFactor) {
  EXPECT_THROW(DecimatorBlock{0}, std::invalid_argument);
}

TEST(FlowGraph, QuantizerBlockBoundsError) {
  auto data = random_samples(2000, 3);
  for (auto& s : data) s *= 0.1f;  // stay inside full scale
  FlowGraph graph;
  graph.add<VectorSource>(data);
  graph.add<QuantizerBlock>(13);
  auto* sink = graph.add<VectorSink>();
  ASSERT_TRUE(graph.run());
  ASSERT_EQ(sink->data().size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(std::abs(sink->data()[i] - data[i]), 0.0, 1.0 / 4095.0);
}

TEST(FlowGraph, MapBlockAppliesFunction) {
  dsp::Samples ones(10, dsp::Complex{1, 1});
  FlowGraph graph;
  graph.add<VectorSource>(ones);
  graph.add<MapBlock>([](dsp::Complex s) { return s * 2.0f; });
  auto* sink = graph.add<VectorSink>();
  ASSERT_TRUE(graph.run());
  for (const auto& s : sink->data()) EXPECT_EQ(s.real(), 2.0f);
}

TEST(FlowGraph, RadioRxFrontEndAsGraph) {
  // The paper's Fig. 6b front end sketched as a flowgraph: 4x-oversampled
  // tone -> 14-tap FIR -> decimate-by-4 -> quantize -> sink; the tone must
  // survive to critical rate with its frequency intact.
  const double cycles = 0.02;  // at 4x rate
  FlowGraph graph;
  graph.add<NcoSource>(cycles, 16384);
  graph.add<FirBlock>(dsp::design_lowpass(14, 0.125));
  graph.add<DecimatorBlock>(4);
  graph.add<QuantizerBlock>(13);
  auto* sink = graph.add<VectorSink>();
  ASSERT_TRUE(graph.run());
  ASSERT_EQ(sink->data().size(), 16384u / 4u);

  // Tone now at 4*cycles per sample: check via FFT peak.
  dsp::Samples window(sink->data().begin(), sink->data().begin() + 4096);
  dsp::FftPlan fft{4096};
  fft.forward(window);
  auto bin = dsp::peak_bin(window);
  EXPECT_NEAR(static_cast<double>(bin), 4.0 * cycles * 4096.0, 1.5);
}

TEST(FlowGraph, StallReportNamesTheBlockedBlock) {
  // A graph ending in a transform (no sink) offers the FIR readable input
  // that it can never move: run() must report the stall and name the fir,
  // not spin forever or blame the (backpressured, blameless) source.
  FlowGraph graph;
  graph.add<NcoSource>(0.1, 1 << 20);
  graph.add<FirBlock>(dsp::design_lowpass(4, 0.25));
  auto report = graph.run(10000);
  EXPECT_FALSE(report);
  EXPECT_EQ(report.state, RunState::kStalled);
  EXPECT_EQ(report.stalled_block, "fir");
}

TEST(FlowGraph, BudgetExhaustedReportedAsSuch) {
  FlowGraph graph;
  graph.add<NcoSource>(0.1, 1 << 22);
  graph.add<FirBlock>(dsp::design_lowpass(4, 0.25));
  graph.add<VectorSink>();
  auto report = graph.run(3);  // healthy graph, absurdly small budget
  EXPECT_FALSE(report);
  EXPECT_EQ(report.state, RunState::kBudgetExhausted);
  EXPECT_TRUE(report.stalled_block.empty());
  EXPECT_EQ(report.iterations, 3u);
}

TEST(FlowGraph, ReportCountsSamplesAcrossEdges) {
  FlowGraph graph;
  auto data = random_samples(1000, 11);
  graph.add<VectorSource>(data);
  graph.add<MapBlock>([](dsp::Complex s) { return s; });
  graph.add<VectorSink>();
  auto report = graph.run();
  ASSERT_TRUE(report);
  EXPECT_EQ(report.samples_streamed, 2000u);  // two edges, 1000 each
}

TEST(FlowGraph, TapReceivesExactCopyOfPrimaryStream) {
  FlowGraph graph;
  auto data = random_samples(3000, 4);
  auto* src = graph.add_block<VectorSource>(data);
  auto* fir = graph.add_block<FirBlock>(dsp::design_lowpass(8, 0.2));
  auto* sink = graph.add_block<VectorSink>();
  auto* tap = graph.add_block<VectorSink>();
  graph.connect(src, fir);
  graph.connect(fir, sink);
  graph.connect_tap(fir, tap);
  ASSERT_TRUE(graph.run());
  ASSERT_EQ(tap->data().size(), sink->data().size());
  for (std::size_t i = 0; i < sink->data().size(); ++i)
    EXPECT_EQ(tap->data()[i], sink->data()[i]) << i;
}

TEST(FlowGraph, TapFeedsAnIndependentChain) {
  // Fan-out: the same FIR output drives a decimating chain and a power
  // probe, GNU-Radio style.
  FlowGraph graph;
  auto* src = graph.add_block<NcoSource>(0.05, 8192);
  auto* fir = graph.add_block<FirBlock>(dsp::design_lowpass(14, 0.125));
  auto* dec = graph.add_block<DecimatorBlock>(4);
  auto* sink = graph.add_block<VectorSink>();
  auto* probe = graph.add_block<PowerProbe>();
  graph.connect(src, fir);
  graph.connect(fir, dec);
  graph.connect(dec, sink);
  graph.connect_tap(fir, probe);
  ASSERT_TRUE(graph.run());
  EXPECT_EQ(sink->data().size(), 8192u / 4u);
  EXPECT_EQ(probe->samples(), 8192u);
  // The probe taps the FIR output: in-band tone minus passband droop.
  EXPECT_NEAR(probe->mean_power(), 1.0, 0.25);
}

TEST(FlowGraph, ConnectRejectsDuplicateAndSelfEdges) {
  FlowGraph graph;
  auto* a = graph.add_block<NcoSource>(0.1, 16);
  auto* b = graph.add_block<VectorSink>();
  auto* c = graph.add_block<VectorSink>();
  graph.connect(a, b);
  EXPECT_THROW(graph.connect(a, c), std::invalid_argument);  // dup output
  EXPECT_THROW(graph.connect(c, b), std::invalid_argument);  // dup input
  EXPECT_THROW(graph.connect_tap(c, c), std::invalid_argument);  // self loop
}

TEST(FlowGraph, TimedTxGateFiresBurstAtSample) {
  // litex-style timed TX: the burst leaves exactly at sample 100 on the
  // edge's monotonic counter, silence before and after, stream ends at
  // exactly total_samples.
  auto burst = random_samples(64, 9);
  FlowGraph graph;
  graph.add<VectorSource>(burst);
  graph.add<TimedTxGate>(100, std::optional<std::uint64_t>{300});
  auto* sink = graph.add<VectorSink>();
  ASSERT_TRUE(graph.run());
  ASSERT_EQ(sink->data().size(), 300u);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(sink->data()[i], (dsp::Complex{0.0f, 0.0f})) << i;
  for (std::size_t i = 0; i < burst.size(); ++i)
    EXPECT_EQ(sink->data()[100 + i], burst[i]) << i;
  for (std::size_t i = 100 + burst.size(); i < 300; ++i)
    EXPECT_EQ(sink->data()[i], (dsp::Complex{0.0f, 0.0f})) << i;
}

TEST(FlowGraph, TimedTxGateWithoutTotalEndsAfterBurst) {
  auto burst = random_samples(32, 10);
  FlowGraph graph;
  graph.add<VectorSource>(burst);
  graph.add<TimedTxGate>(50);
  auto* sink = graph.add<VectorSink>();
  ASSERT_TRUE(graph.run());
  ASSERT_EQ(sink->data().size(), 50u + burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i)
    EXPECT_EQ(sink->data()[50 + i], burst[i]) << i;
}

TEST(FlowGraph, TimedTxGateRejectsTotalBeforeFire) {
  EXPECT_THROW(TimedTxGate(100, std::optional<std::uint64_t>{50}),
               std::invalid_argument);
}

TEST(FlowGraph, CappedSinkDropsOverflowAndKeepsDraining) {
  // A capped sink must keep consuming past its cap (count, don't stall):
  // the graph still drains and the drop count is exact.
  auto data = random_samples(2500, 6);
  FlowGraph graph;
  graph.add<VectorSource>(data);
  auto* sink = graph.add<VectorSink>(1000);
  auto report = graph.run();
  ASSERT_TRUE(report);
  EXPECT_EQ(sink->data().size(), 1000u);
  EXPECT_EQ(sink->dropped(), 1500u);
  for (std::size_t i = 0; i < 1000; ++i)
    EXPECT_EQ(sink->data()[i], data[i]);
}

}  // namespace
}  // namespace tinysdr::flow
