// ctest-facing fuzz smoke: every registered harness runs its seed corpus
// plus a fixed count of generated inputs and must come back clean. The
// iteration count is modest by default (this runs in every ctest
// invocation) and overridable via TINYSDR_FUZZ_ITERS — CI's fuzz-smoke
// job drives the same harness table through tinysdr_fuzz at 10k+.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "harnesses/harnesses.hpp"
#include "testkit/harness.hpp"

#ifndef TINYSDR_CORPUS_DIR
#define TINYSDR_CORPUS_DIR ""
#endif

namespace tinysdr::fuzz {
namespace {

std::size_t env_iters(std::size_t fallback) {
  const char* v = std::getenv("TINYSDR_FUZZ_ITERS");
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

TEST(FuzzSmoke, EveryHarnessRunsCleanOverCorpusAndSeedStream) {
  register_builtin_harnesses();
  const auto& harnesses = testkit::HarnessRegistry::instance().all();
  // OTA, PHY, obs, adversary and impairment harnesses.
  ASSERT_GE(harnesses.size(), 10u);
  for (const auto& h : harnesses) {
    testkit::FuzzRunConfig cfg;
    cfg.iterations = env_iters(40);
    cfg.corpus_dir = std::string(TINYSDR_CORPUS_DIR) + "/" + h.name;
    cfg.artifact_dir = "fuzz-artifacts";
    testkit::FuzzReport report = testkit::run_fuzz(h, cfg);
    EXPECT_TRUE(report.ok()) << report.message();
  }
}

TEST(FuzzSmoke, GeneratedInputsReplayFromSeedAndIndexAlone) {
  register_builtin_harnesses();
  const auto* h =
      testkit::HarnessRegistry::instance().find("ota.transfer");
  ASSERT_NE(h, nullptr);
  for (std::uint64_t index : {std::uint64_t{0}, std::uint64_t{1},
                              std::uint64_t{17}, std::uint64_t{999}}) {
    EXPECT_EQ(testkit::fuzz_input(*h, 42, index),
              testkit::fuzz_input(*h, 42, index));
  }
  EXPECT_NE(testkit::fuzz_input(*h, 42, 1), testkit::fuzz_input(*h, 43, 1));
}

TEST(FuzzSmoke, CorpusDirectoriesExistForEveryHarness) {
  register_builtin_harnesses();
  for (const auto& h : testkit::HarnessRegistry::instance().all()) {
    auto corpus =
        testkit::load_corpus(std::string(TINYSDR_CORPUS_DIR) + "/" + h.name);
    EXPECT_FALSE(corpus.empty()) << "no seed corpus for " << h.name;
  }
}

}  // namespace
}  // namespace tinysdr::fuzz
