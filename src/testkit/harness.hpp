// Fuzz harness table and the deterministic fuzz driver.
//
// A Harness is a named, total function over a byte string that throws to
// signal a property violation — exactly the libFuzzer entry-point shape.
// All harnesses register into one HarnessRegistry so every driver runs
// the same code:
//
//   - ctest:      tests/fuzz/fuzz_smoke_test.cpp runs each harness for a
//                 fixed iteration count,
//   - CLI/CI:     the tinysdr_fuzz executable (tests/fuzz/fuzz_main.cpp)
//                 runs corpus + generated inputs and writes shrunk
//                 counterexample artifacts,
//   - libFuzzer:  the same file compiled with TINYSDR_LIBFUZZER exposes
//                 LLVMFuzzerTestOneInput over the selected harness.
//
// Generated input `i` of a run is a pure function of (seed, i) via
// exec::stream_seed, so a failure replays from that pair alone — no
// corpus file required (corpus entries are extra inputs on top, replayed
// by file). On failure the driver shrinks the input byte-wise (truncate,
// drop chunks, zero bytes) while the harness keeps failing, and reports
// the minimal input.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tinysdr::testkit {

struct Harness {
  std::string name;  ///< dotted id, e.g. "ota.lzo_decode"
  /// Total over all inputs; throws (anything) to report a violation.
  std::function<void(std::span<const std::uint8_t>)> run;
  /// Length cap for generated inputs (corpus files are run as-is).
  std::size_t max_len = 512;
};

class HarnessRegistry {
 public:
  /// Process-wide table (harness translation units register into it via
  /// their register_*() functions; see tests/fuzz/harnesses/).
  [[nodiscard]] static HarnessRegistry& instance();

  /// @throws std::invalid_argument on a duplicate name.
  void add(Harness h);

  [[nodiscard]] const Harness* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Harness>& all() const { return harnesses_; }
  void clear() { harnesses_.clear(); }

 private:
  std::vector<Harness> harnesses_;
};

struct FuzzRunConfig {
  std::uint64_t seed = 0xF0220;
  std::size_t iterations = 1000;
  /// Directory of seed inputs for this harness (every regular file is run
  /// first, and entries also serve as mutation bases for generated
  /// inputs). Empty = generated inputs only.
  std::string corpus_dir;
  /// Where to write shrunk counterexamples; empty = don't write.
  std::string artifact_dir;
  /// Candidate-execution budget for byte-level shrinking.
  std::size_t max_shrinks = 4000;
};

struct FuzzFailure {
  std::uint64_t seed = 0;
  /// Generated-input index, or nullopt when a corpus file failed.
  std::optional<std::uint64_t> index;
  std::string corpus_file;  ///< set when a corpus entry failed
  std::vector<std::uint8_t> input;   ///< the original failing input
  std::vector<std::uint8_t> shrunk;  ///< minimal failing input found
  std::size_t shrink_steps = 0;
  std::string error;
  std::string artifact;  ///< path of the written artifact, if any
};

struct FuzzReport {
  std::string harness;
  std::size_t iterations_run = 0;
  std::size_t corpus_inputs = 0;
  std::optional<FuzzFailure> failure;

  [[nodiscard]] bool ok() const { return !failure.has_value(); }
  /// Failure report with replay recipe; one summary line on success.
  [[nodiscard]] std::string message() const;
};

/// Regenerate generated input `index` of a (seed-rooted) run — the replay
/// half of the (seed, index) contract. Mirrors run_fuzz exactly.
[[nodiscard]] std::vector<std::uint8_t> fuzz_input(
    const Harness& harness, std::uint64_t seed, std::uint64_t index,
    std::span<const std::vector<std::uint8_t>> corpus = {});

/// Load every regular file under `dir` in name order. Missing/empty dir
/// yields an empty corpus.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> load_corpus(
    const std::string& dir);

/// Run corpus entries then `iterations` generated inputs through the
/// harness; stop at the first failure, shrink it, optionally write the
/// artifact.
[[nodiscard]] FuzzReport run_fuzz(const Harness& harness,
                                  const FuzzRunConfig& cfg);

/// Byte-level greedy shrink of a failing input: empty/truncations, chunk
/// drops, byte zeroing — bounded by `max_candidates` harness executions.
[[nodiscard]] std::pair<std::vector<std::uint8_t>, std::size_t> shrink_bytes(
    const Harness& harness, std::vector<std::uint8_t> input,
    std::size_t max_candidates);

}  // namespace tinysdr::testkit
