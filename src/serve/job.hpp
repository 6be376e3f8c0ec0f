// Campaign job & result schemas for the testbed-as-a-service layer.
//
// A job (`tinysdr-job-v1`) is what an experimenter submits to the campaign
// server: a named, prioritised bundle of LinkSimulator sweeps and/or
// testbed fleet campaigns, each fully specified by (phy, grid, trials,
// seed). A result (`tinysdr-result-v1`) is the deterministic answer: the
// canonicalised job echoed back plus every sweep point / fleet node
// outcome, serialised with the obs layer's shortest-round-trip number
// formatting so the bytes are identical whether the job ran serially,
// sharded across the worker pool, through the daemon, from the memoization
// cache, or resumed after a restart.
//
// All integers in the wire format ride in JSON numbers (doubles), so
// seeds and counts are validated to be exact below 2^53 — plenty for
// campaign use, and what keeps parse(serialize(x)) == x bit-for-bit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "phy/link_sim.hpp"
#include "phy/phy.hpp"
#include "testbed/phy_campaign.hpp"

namespace tinysdr::obs {
struct JsonValue;
}

namespace tinysdr::serve {

inline constexpr std::string_view kJobSchema = "tinysdr-job-v1";
inline constexpr std::string_view kResultSchema = "tinysdr-result-v1";

/// One LinkSimulator RSSI sweep inside a job. Unset pad/noise-figure fall
/// back to the registry entry's calibrated defaults at execution time, and
/// the canonical form always carries the resolved values — two spellings
/// of the same physics produce the same canonical bytes and cache keys.
struct SweepSpec {
  phy::Protocol phy{};
  std::vector<double> rssi_dbm;
  std::size_t trials = 50;
  std::size_t payload_bytes = 16;
  std::uint64_t base_seed = 1;
  std::optional<std::size_t> pad_samples;
  std::optional<double> noise_figure_db;

  [[nodiscard]] bool operator==(const SweepSpec&) const = default;
};

/// One multi-PHY fleet campaign inside a job (testbed::run_phy_campaign
/// over the campus deployment model). `phy` unset means the classic
/// round-robin protocol assignment; set, the whole fleet is reprogrammed
/// to that protocol.
struct FleetSpec {
  std::size_t nodes = 20;
  std::size_t trials_per_node = 20;
  std::size_t payload_bytes = 12;
  std::uint64_t base_seed = 1;
  std::uint64_t deployment_seed = 2024;
  std::optional<phy::Protocol> phy;

  [[nodiscard]] bool operator==(const FleetSpec&) const = default;
};

struct JobSpec {
  std::string name = "job";
  /// Higher runs first; ties break by submission order.
  int priority = 0;
  /// Wall-clock execution budget in seconds; a job that runs out is
  /// checkpointed to the sweep cache and re-queued.
  std::optional<double> deadline_s;
  std::vector<SweepSpec> sweeps;
  std::vector<FleetSpec> fleets;

  [[nodiscard]] bool operator==(const JobSpec&) const = default;

  /// Deterministic `tinysdr-job-v1` bytes: fixed member order, defaults
  /// materialised, numbers in shortest-round-trip form.
  [[nodiscard]] std::string canonical_json() const;
  void write_json(std::ostream& out) const;
};

/// Parse + validate a job document against the built-in registry's
/// protocols. Returns nullopt and a human-readable reason in `error` on
/// any violation (unknown phy, empty grid, zero trials, payload beyond
/// the PHY's max, non-integral seed, ...).
[[nodiscard]] std::optional<JobSpec> parse_job(std::string_view json,
                                               std::string& error);
[[nodiscard]] std::optional<JobSpec> parse_job(const obs::JsonValue& doc,
                                               std::string& error);

/// The `id` member of a request or job-journal line: an exact integer in
/// [1, 2^53], the same rule seeds follow. nullopt when absent, not a
/// number, fractional or out of range.
[[nodiscard]] std::optional<std::uint64_t> job_id(const obs::JsonValue& doc);

struct SweepResult {
  std::vector<phy::PointResult> points;  ///< one per grid RSSI, in order
};

struct FleetResult {
  std::vector<testbed::PhyNodeResult> per_node;  ///< node-id order
};

/// A finished job. Serialisation is pure in the job + outcomes — no
/// timestamps, thread counts or cache statistics — which is what makes
/// "byte-identical across every execution strategy" a testable contract.
struct JobResult {
  JobSpec job;
  std::vector<SweepResult> sweeps;  ///< parallel to job.sweeps
  std::vector<FleetResult> fleets;  ///< parallel to job.fleets

  [[nodiscard]] std::string json() const;
  void write_json(std::ostream& out) const;
};

}  // namespace tinysdr::serve
