// tinysdr_fuzz: deterministic fuzz driver over the shared harness table.
//
//   tinysdr_fuzz --list
//   tinysdr_fuzz [--harness NAME] [--iterations N] [--seed S]
//                [--corpus DIR] [--artifacts DIR]
//   tinysdr_fuzz --harness NAME --replay-index I [--seed S]
//   tinysdr_fuzz --harness NAME --replay FILE
//
// Default: every harness, 10000 generated inputs each on top of its seed
// corpus (CI's fuzz-smoke job). Exit code 1 on the first failure, after
// shrinking and writing the counterexample artifact.
//
// Compiled with TINYSDR_LIBFUZZER the same table becomes a libFuzzer
// target: LLVMFuzzerTestOneInput drives the harness named by the
// TINYSDR_FUZZ_HARNESS environment variable.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "harnesses/harnesses.hpp"
#include "testkit/harness.hpp"

#ifndef TINYSDR_CORPUS_DIR
#define TINYSDR_CORPUS_DIR ""
#endif

#ifdef TINYSDR_LIBFUZZER

namespace {
const tinysdr::testkit::Harness* g_harness = nullptr;
}  // namespace

extern "C" int LLVMFuzzerInitialize(int* /*argc*/, char*** /*argv*/) {
  tinysdr::fuzz::register_builtin_harnesses();
  const char* name = std::getenv("TINYSDR_FUZZ_HARNESS");
  if (name == nullptr || *name == '\0') name = "ota.transfer";
  g_harness = tinysdr::testkit::HarnessRegistry::instance().find(name);
  if (g_harness == nullptr) {
    std::fprintf(stderr, "tinysdr_fuzz: unknown harness '%s'\n", name);
    std::fprintf(stderr, "set TINYSDR_FUZZ_HARNESS to one of:\n");
    for (const auto& h : tinysdr::testkit::HarnessRegistry::instance().all())
      std::fprintf(stderr, "  %s\n", h.name.c_str());
    std::abort();
  }
  return 0;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // A property violation throws; libFuzzer treats the uncaught exception
  // as a crash and keeps the input.
  g_harness->run(std::span<const std::uint8_t>{data, size});
  return 0;
}

#else  // standalone CLI driver

namespace {

using tinysdr::testkit::FuzzReport;
using tinysdr::testkit::FuzzRunConfig;
using tinysdr::testkit::Harness;
using tinysdr::testkit::HarnessRegistry;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--list] [--harness NAME] [--iterations N] [--seed S]\n"
      "          [--corpus DIR] [--artifacts DIR]\n"
      "          [--replay FILE | --replay-index I]\n",
      argv0);
  return 2;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

int run_one_input(const Harness& h, const std::vector<std::uint8_t>& input,
                  const std::string& what) {
  try {
    h.run(input);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s FAILED: %s\n", h.name.c_str(), what.c_str(),
                 e.what());
    return 1;
  }
  std::printf("%s: %s ok (%zu bytes)\n", h.name.c_str(), what.c_str(),
              input.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tinysdr::fuzz::register_builtin_harnesses();
  auto& registry = HarnessRegistry::instance();

  std::string harness_name;
  std::string corpus_root = TINYSDR_CORPUS_DIR;
  std::string artifacts = "fuzz-artifacts";
  std::string replay_file;
  std::uint64_t seed = 0xF0220;
  std::uint64_t replay_index = 0;
  bool has_replay_index = false;
  std::size_t iterations = 10000;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      for (const auto& h : registry.all()) std::printf("%s\n", h.name.c_str());
      return 0;
    }
    if (arg == "--harness") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      harness_name = v;
    } else if (arg == "--iterations") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      iterations = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--corpus") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      corpus_root = v;
    } else if (arg == "--artifacts") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      artifacts = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      replay_file = v;
    } else if (arg == "--replay-index") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      replay_index = std::strtoull(v, nullptr, 10);
      has_replay_index = true;
    } else {
      return usage(argv[0]);
    }
  }

  std::vector<const Harness*> selected;
  if (harness_name.empty()) {
    for (const auto& h : registry.all()) selected.push_back(&h);
  } else {
    const Harness* h = registry.find(harness_name);
    if (h == nullptr) {
      std::fprintf(stderr, "unknown harness '%s' (try --list)\n",
                   harness_name.c_str());
      return 2;
    }
    selected.push_back(h);
  }

  if (!replay_file.empty() || has_replay_index) {
    if (selected.size() != 1) {
      std::fprintf(stderr, "--replay/--replay-index need --harness NAME\n");
      return 2;
    }
    const Harness& h = *selected.front();
    if (!replay_file.empty())
      return run_one_input(h, read_file(replay_file),
                           "replay of " + replay_file);
    auto corpus =
        tinysdr::testkit::load_corpus(corpus_root + "/" + h.name);
    auto input = tinysdr::testkit::fuzz_input(h, seed, replay_index, corpus);
    return run_one_input(h, input,
                         "replay of seed " + std::to_string(seed) +
                             " index " + std::to_string(replay_index));
  }

  int rc = 0;
  for (const Harness* h : selected) {
    FuzzRunConfig cfg;
    cfg.seed = seed;
    cfg.iterations = iterations;
    cfg.corpus_dir = corpus_root + "/" + h->name;
    cfg.artifact_dir = artifacts;
    FuzzReport report = tinysdr::testkit::run_fuzz(*h, cfg);
    std::printf("%s\n", report.message().c_str());
    if (!report.ok()) {
      rc = 1;
      break;
    }
  }
  return rc;
}

#endif  // TINYSDR_LIBFUZZER
