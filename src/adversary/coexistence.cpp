#include "adversary/coexistence.hpp"

#include <memory>

#include "exec/parallel_for.hpp"
#include "exec/seed.hpp"
#include "obs/shards.hpp"

namespace tinysdr::adversary {

const phy::PointResult* CoexistenceMatrix::find(
    phy::Protocol victim, std::optional<phy::Protocol> interferer) const {
  for (const auto& cell : cells) {
    if (cell.victim == victim && cell.interferer == interferer)
      return &cell.result;
  }
  return nullptr;
}

double CoexistenceMatrix::per_penalty(phy::Protocol victim,
                                      phy::Protocol interferer) const {
  const phy::PointResult* clean = find(victim, std::nullopt);
  const phy::PointResult* jammed = find(victim, interferer);
  if (clean == nullptr || jammed == nullptr) return 0.0;
  return jammed->per() - clean->per();
}

CoexistenceMatrix run_coexistence_matrix(const CoexistenceConfig& config,
                                         const exec::ExecPolicy& policy,
                                         const phy::Registry& registry) {
  CoexistenceMatrix matrix;
  matrix.config = config;
  const auto& entries = registry.entries();
  for (const auto& e : entries) matrix.protocols.push_back(e.id);

  // Enumerate cells up front, victim-major, clean cell first — the fixed
  // order everything else (seeds, shard merge, output) keys off.
  struct Job {
    std::size_t victim;
    std::optional<std::size_t> interferer;
  };
  std::vector<Job> jobs;
  for (std::size_t v = 0; v < entries.size(); ++v) {
    jobs.push_back({v, std::nullopt});
    for (std::size_t i = 0; i < entries.size(); ++i) jobs.push_back({v, i});
  }
  matrix.cells.resize(jobs.size());

  obs::ItemShards shards{jobs.size()};

  (void)exec::parallel_for(jobs.size(), policy, [&](std::size_t j) {
    auto scope = shards.enter(j);
    const Job& job = jobs[j];
    const phy::RegisteredPhy& victim = entries[job.victim];
    auto tx = victim.make_tx();
    auto rx = victim.make_rx();

    phy::TrialPlan plan;
    plan.trials = config.trials;
    plan.payload_bytes = config.payload_bytes;
    plan.pad_samples = victim.pad_samples;
    plan.noise_figure_db = victim.system_noise_figure_db;
    // Grid-independent cell seed: pure in (base, victim id, interferer id).
    const std::uint64_t key =
        (static_cast<std::uint64_t>(job.victim) << 8) |
        (job.interferer ? *job.interferer + 1 : 0);
    plan.base_seed = exec::stream_seed(config.base_seed, key);

    phy::LinkSimulator sim{*tx, *rx, plan};
    std::unique_ptr<phy::PhyTx> interferer_tx;
    std::optional<phy::PhyTxInterferer> interferer;
    phy::SweepPoint point{config.rssi, std::nullopt};
    if (job.interferer) {
      interferer_tx = entries[*job.interferer].make_tx();
      interferer.emplace(*interferer_tx, config.payload_bytes);
      sim.add_interferer(*interferer);
      point.interferer_rssi = config.rssi + config.interferer_offset_db;
    }

    CoexistenceCell& cell = matrix.cells[j];
    cell.victim = victim.id;
    if (job.interferer) cell.interferer = entries[*job.interferer].id;
    cell.result = sim.run_point(point);
  });
  shards.fold_all();
  return matrix;
}

}  // namespace tinysdr::adversary
