// Adversarial scenario pack: RF jammers plugged into the link simulator,
// scripted OTA-protocol attackers, the anti-rollback ratchet, the
// coexistence matrix, and the determinism contract of attacked campaigns.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "adversary/coexistence.hpp"
#include "adversary/jammer.hpp"
#include "adversary/ota_attacker.hpp"
#include "exec/policy.hpp"
#include "obs/metrics.hpp"
#include "phy/link_sim.hpp"
#include "phy/lora_phy.hpp"
#include "phy/registry.hpp"
#include "testbed/campaign.hpp"

namespace tinysdr::adversary {
namespace {

// ------------------------------------------------------------ jammers

phy::LoraPhyConfig test_lora_config() {
  return {.params = {7, Hertz::from_kilohertz(125.0)},
          .sample_rate = Hertz::from_kilohertz(125.0)};
}

phy::TrialPlan small_plan(std::uint64_t seed) {
  phy::TrialPlan plan;
  plan.trials = 4;
  plan.payload_bytes = 8;
  plan.noise_figure_db = phy::kLoraSystemNf;
  plan.base_seed = seed;
  return plan;
}

TEST(Jammer, ReactiveTriggersOnSignalAndStaysQuietOnSilence) {
  ReactiveJammer jammer{{}};
  Rng rng{1, 2};
  dsp::Samples out;

  // Silence: never triggers, emits nothing.
  dsp::Samples silence(512, dsp::Complex{0.0f, 0.0f});
  jammer.emit(silence, out, rng);
  EXPECT_TRUE(out.empty());

  // A unit-power burst: triggers, and the burst starts only after the
  // detection window plus the reaction latency (zeros before that).
  dsp::Samples signal(1024, dsp::Complex{1.0f, 0.0f});
  jammer.emit(signal, out, rng);
  ASSERT_EQ(out.size(), signal.size());
  const std::size_t quiet =
      jammer.config().detect_window + jammer.config().reaction_latency;
  for (std::size_t n = 0; n < quiet; ++n)
    EXPECT_EQ(std::norm(out[n]), 0.0f) << "sample " << n;
  // Past the reaction point the jammer is loud.
  double energy = 0.0;
  for (std::size_t n = quiet; n < out.size(); ++n) energy += std::norm(out[n]);
  EXPECT_GT(energy / static_cast<double>(out.size() - quiet), 0.1);
}

TEST(Jammer, ReactiveHonoursBurstLength) {
  ReactiveJammerConfig cfg;
  cfg.burst_samples = 100;
  ReactiveJammer jammer{cfg};
  Rng rng{3, 4};
  dsp::Samples signal(2048, dsp::Complex{1.0f, 0.0f});
  dsp::Samples out;
  jammer.emit(signal, out, rng);
  const std::size_t start = cfg.detect_window + cfg.reaction_latency;
  ASSERT_EQ(out.size(), start + cfg.burst_samples);
  EXPECT_GT(std::norm(out.back()), 0.0f);
}

TEST(Jammer, EmissionsAreSeedDeterministic) {
  dsp::Samples signal(600, dsp::Complex{1.0f, 0.0f});
  for (auto make : {0, 1, 2}) {
    dsp::Samples a, b;
    Rng ra{77, 5}, rb{77, 5};
    if (make == 0) {
      ReactiveJammer j{{}};
      j.emit(signal, a, ra);
      j.emit(signal, b, rb);
    } else if (make == 1) {
      SweepJammer j{{}};
      j.emit(signal, a, ra);
      j.emit(signal, b, rb);
    } else {
      PulsedJammer j{{}};
      j.emit(signal, a, ra);
      j.emit(signal, b, rb);
    }
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t n = 0; n < a.size(); ++n) EXPECT_EQ(a[n], b[n]);
  }
}

TEST(Jammer, PulsedRespectsDutyCycle) {
  PulsedJammerConfig cfg;
  cfg.period_samples = 100;
  cfg.duty = 0.25;
  PulsedJammer jammer{cfg};
  Rng rng{9, 1};
  dsp::Samples signal(10000, dsp::Complex{1.0f, 0.0f});
  dsp::Samples out;
  jammer.emit(signal, out, rng);
  ASSERT_EQ(out.size(), signal.size());
  std::size_t active = 0;
  for (const auto& s : out)
    if (std::norm(s) > 0.0f) ++active;
  // 25% duty over 100 periods.
  EXPECT_NEAR(static_cast<double>(active) / 10000.0, 0.25, 0.02);
}

TEST(Jammer, SweepEmitsUnitPowerChirp) {
  SweepJammer jammer{{}};
  Rng rng{4, 2};
  dsp::Samples signal(4096, dsp::Complex{1.0f, 0.0f});
  dsp::Samples out;
  jammer.emit(signal, out, rng);
  ASSERT_EQ(out.size(), signal.size());
  for (std::size_t n = 0; n < out.size(); n += 512)
    EXPECT_NEAR(std::norm(out[n]), 1.0f, 1e-4);
}

TEST(JammerLink, StrongJammerDegradesLinkDeterministically) {
  auto cfg = test_lora_config();
  phy::LoraSymbolTx tx{cfg};
  phy::LoraSymbolRx rx{cfg};

  // A comfortable RSSI where the clean link is error-free.
  const double rssi = -110.0;
  auto run = [&](const phy::Interferer* jammer, std::optional<Dbm> power) {
    phy::LinkSimulator sim{tx, rx, small_plan(0x1AA5)};
    if (jammer != nullptr) sim.add_interferer(*jammer, power);
    return sim.run_point({Dbm{rssi}, std::nullopt});
  };

  auto clean = run(nullptr, std::nullopt);
  EXPECT_EQ(clean.symbol_errors, 0u);

  // Jammer 10 dB above the signal: the link must degrade.
  PulsedJammerConfig cfg_pulsed;
  cfg_pulsed.duty = 1.0;
  PulsedJammer jammer{cfg_pulsed};
  auto jammed = run(&jammer, Dbm{rssi + 10.0});
  EXPECT_GT(jammed.symbol_errors, 0u);

  // And identically on replay.
  auto replay = run(&jammer, Dbm{rssi + 10.0});
  EXPECT_EQ(jammed, replay);
}

TEST(JammerLink, FixedPowerSlotIsSilentWithoutPowerOrPoint) {
  auto cfg = test_lora_config();
  phy::LoraSymbolTx tx{cfg};
  phy::LoraSymbolRx rx{cfg};
  PulsedJammer jammer{{}};

  // No fixed power and no interferer_rssi at the point: slot stays silent,
  // results match the clean link exactly.
  phy::LinkSimulator clean{tx, rx, small_plan(123)};
  phy::LinkSimulator armed{tx, rx, small_plan(123)};
  armed.add_interferer(jammer);  // power comes from the point... which has none
  EXPECT_EQ(armed.interferer_count(), 1u);
  EXPECT_EQ(clean.run_point({Dbm{-112.0}, std::nullopt}),
            armed.run_point({Dbm{-112.0}, std::nullopt}));
}

/// An interferer that never keys up (empty emission).
struct SilentInterferer final : phy::Interferer {
  void emit(std::span<const dsp::Complex>, dsp::Samples&, Rng&) const
      override {}
};

TEST(JammerLink, AddingSecondInterfererKeepsFirstSlotStream) {
  // Slot 0 keeps the historical RNG stream: attaching a second interferer
  // that emits nothing must not perturb the single-interferer result.
  auto cfg = test_lora_config();
  phy::LoraSymbolTx tx{cfg}, itx{cfg};
  phy::LoraSymbolRx rx{cfg};
  SilentInterferer silent;

  const phy::PhyTxInterferer concurrent{itx, small_plan(56).payload_bytes};

  phy::LinkSimulator one{tx, rx, small_plan(56)};
  one.add_interferer(concurrent);

  phy::LinkSimulator two{tx, rx, small_plan(56)};
  two.add_interferer(concurrent);
  two.add_interferer(silent);  // empty emission: must change nothing

  const phy::SweepPoint point{Dbm{-112.0}, Dbm{-112.0}};
  EXPECT_EQ(one.run_point(point), two.run_point(point));
}

// ------------------------------------------------------ OTA attackers

TEST(OtaAttack, ScriptedAttackerIsSeedDeterministic) {
  OtaAttackPlan plan;
  plan.jam_rate = 0.3;
  plan.forge_ack_rate = 0.2;
  ScriptedAttacker a{plan}, b{plan};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.jam_packet(ota::OtaPacketType::kData, 70),
              b.jam_packet(ota::OtaPacketType::kData, 70));
    EXPECT_EQ(a.forge_ack(ota::OtaPacketType::kSack),
              b.forge_ack(ota::OtaPacketType::kSack));
  }
  EXPECT_EQ(a.counters().jams, b.counters().jams);
  EXPECT_GT(a.counters().jams, 0u);
  EXPECT_GT(a.counters().forged_acks, 0u);
}

TEST(OtaAttack, TransferSurvivesEveryAttackDimension) {
  // One attacker running all four attack dimensions at once against a
  // strong link: the transfer must still succeed, and the outcome counters
  // must agree exactly with what the attacker launched.
  OtaAttackPlan plan;
  plan.seed = 0x5EED;
  plan.jam_rate = 0.05;
  plan.forge_ack_rate = 0.03;
  plan.truncate_rate = 0.03;
  plan.replay_rate = 0.08;
  ScriptedAttacker attacker{plan};

  std::vector<std::uint8_t> image(6000);
  std::iota(image.begin(), image.end(), 0);
  ota::OtaLink link{ota::ota_link_params(), Dbm{-60.0}, std::uint64_t{42}};
  ota::FlashModel flash;
  ota::NodeAgent node{5, flash};
  ota::TransferPolicy policy;
  policy.max_retries = 200;
  ota::AccessPoint ap;
  auto outcome =
      ap.transfer(image, 5, link, policy, &node, nullptr, &attacker);

  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.failure, ota::UpdateFailure::kNone);
  // Every attack the attacker launched was detected and survived.
  EXPECT_EQ(outcome.jammed_packets, attacker.counters().jams);
  EXPECT_EQ(outcome.forged_acks_discarded, attacker.counters().forged_acks);
  EXPECT_EQ(outcome.truncated_dropped, attacker.counters().truncations);
  EXPECT_EQ(outcome.replays_dropped, attacker.counters().replays);
  EXPECT_GT(attacker.counters().total(), 0u);
  // The staged stream is untouched by the attacks.
  EXPECT_EQ(flash.read(ota::NodeAgent::kStagingBase, image.size()), image);
}

TEST(OtaAttack, JamOnlyAttackCostsRetransmissions) {
  std::vector<std::uint8_t> image(3000, 0xAB);
  auto run = [&](double jam_rate) {
    OtaAttackPlan plan;
    plan.jam_rate = jam_rate;
    ScriptedAttacker attacker{plan};
    ota::OtaLink link{ota::ota_link_params(), Dbm{-60.0}, std::uint64_t{7}};
    ota::TransferPolicy policy;
    policy.max_retries = 200;
    ota::AccessPoint ap;
    return ap.transfer(image, 2, link, policy, nullptr, nullptr, &attacker);
  };
  auto clean = run(0.0);
  auto jammed = run(0.25);
  EXPECT_TRUE(clean.success);
  EXPECT_TRUE(jammed.success);
  EXPECT_EQ(clean.jammed_packets, 0u);
  EXPECT_GT(jammed.jammed_packets, 0u);
  EXPECT_GT(jammed.retransmissions, clean.retransmissions);
  EXPECT_GT(jammed.airtime.value(), clean.airtime.value());
}

TEST(OtaAttack, RecoveryHistogramRecordsTimeToRecovery) {
  obs::Registry registry;
  obs::MetricsSession session{registry};

  OtaAttackPlan plan;
  plan.jam_rate = 0.15;
  ScriptedAttacker attacker{plan};
  std::vector<std::uint8_t> image(3000, 0x11);
  ota::OtaLink link{ota::ota_link_params(), Dbm{-60.0}, std::uint64_t{9}};
  ota::TransferPolicy policy;
  policy.max_retries = 200;
  ota::AccessPoint ap;
  auto outcome = ap.transfer(image, 2, link, policy, nullptr, nullptr,
                             &attacker);
  ASSERT_TRUE(outcome.success);
  ASSERT_GT(outcome.jammed_packets, 0u);

  const std::string json = registry.json();
  // Detection counters and the recovery histogram both flowed through obs.
  EXPECT_NE(json.find("adversary.ota.jammed_packet"), std::string::npos);
  EXPECT_NE(json.find("adversary.ota.recovery_s"), std::string::npos);
}

// -------------------------------------------------------- anti-rollback

TEST(Rollback, FirmwareStoreRefusesOlderVersions) {
  ota::FlashModel flash;
  ota::FirmwareStore store{flash};
  std::vector<std::uint8_t> v5(1024, 0x55), v3(1024, 0x33);

  ASSERT_TRUE(store.write_slot(ota::Slot::kA, v5, 5));
  ASSERT_TRUE(store.activate(ota::Slot::kA));
  EXPECT_EQ(store.min_version(), 5u);

  // An older (valid!) image lands in the standby slot; activation refuses.
  ASSERT_TRUE(store.write_slot(ota::Slot::kB, v3, 3));
  EXPECT_FALSE(store.activate(ota::Slot::kB));
  EXPECT_EQ(store.active_slot(), ota::Slot::kA);
  EXPECT_EQ(store.rollback_rejections(), 1u);
  EXPECT_EQ(store.min_version(), 5u);

  // Equal or newer versions activate and ratchet.
  ASSERT_TRUE(store.write_slot(ota::Slot::kB, v3, 5));
  EXPECT_TRUE(store.activate(ota::Slot::kB));
  ASSERT_TRUE(store.write_slot(ota::Slot::kA, v5, 9));
  EXPECT_TRUE(store.activate(ota::Slot::kA));
  EXPECT_EQ(store.min_version(), 9u);
}

TEST(Rollback, GoldenRecoveryBypassesTheRatchet) {
  // The ratchet guards *updates*; disaster recovery to golden must still
  // work even though golden is older than the floor.
  ota::FlashModel flash;
  ota::FirmwareStore store{flash};
  std::vector<std::uint8_t> golden(512, 0x60);
  std::vector<std::uint8_t> v7(512, 0x77);
  ASSERT_TRUE(store.install_golden(golden, 1));
  ASSERT_TRUE(store.write_slot(ota::Slot::kA, v7, 7));
  ASSERT_TRUE(store.activate(ota::Slot::kA));
  EXPECT_TRUE(store.rollback_to_golden());
  EXPECT_EQ(store.active_slot(), ota::Slot::kGolden);
  EXPECT_EQ(store.rollback_count(), 1u);
}

TEST(Rollback, UpdatePlannerReportsRejectedRollback) {
  // Full pipeline: the node runs v5, the AP pushes a v1 image. The
  // transfer itself succeeds; activation is refused and the report says
  // kRejectedRollback with the node still on its old image.
  Rng img_rng{3};
  auto image = fpga::generate_mcu_program("fw", 8 * 1024, img_rng);
  ota::FlashModel flash;
  ota::FirmwareStore store{flash};
  std::vector<std::uint8_t> current(2048, 0xCC);
  ASSERT_TRUE(store.install_golden(current, 5));
  ASSERT_TRUE(store.activate(ota::Slot::kGolden));

  ota::OtaLink link{ota::ota_link_params(), Dbm{-60.0}, std::uint64_t{11}};
  mcu::Msp432 mcu;
  ota::UpdateOptions options;
  options.store = &store;
  options.image_version = 1;  // older than the fleet's v5
  ota::UpdatePlanner planner;
  auto report = planner.run(ota::UpdatePlanner::prepare(image),
                            ota::UpdateTarget::kMcu, 4, link, flash, mcu,
                            options);

  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.failure, ota::UpdateFailure::kRejectedRollback);
  EXPECT_TRUE(report.transfer.success);  // the radio phase was fine
  EXPECT_EQ(store.active_slot(), ota::Slot::kGolden);
  EXPECT_EQ(store.rollback_rejections(), 1u);
}

// --------------------------------------------------------- coexistence

TEST(Coexistence, MatrixShapeAndCleanReferences) {
  CoexistenceConfig cfg;
  cfg.trials = 2;
  cfg.payload_bytes = 8;
  auto matrix = run_coexistence_matrix(cfg, exec::ExecPolicy::serial());

  const auto& registry = phy::Registry::builtin();
  const std::size_t n = registry.size();
  ASSERT_EQ(matrix.protocols.size(), n);
  ASSERT_EQ(matrix.cells.size(), n * (n + 1));

  for (const auto& entry : registry.entries()) {
    // Every victim has a clean reference cell, error-free at -85 dBm.
    const auto* clean = matrix.find(entry.id, std::nullopt);
    ASSERT_NE(clean, nullptr) << entry.name;
    EXPECT_GT(clean->frames, 0u);
    EXPECT_EQ(clean->frame_errors, 0u) << entry.name;
    // And one cell against every interferer.
    for (const auto& other : registry.entries())
      EXPECT_NE(matrix.find(entry.id, other.id), nullptr);
  }

  // Equal-power co-channel interference hurts someone: the matrix is not
  // trivially all-zero.
  double worst = 0.0;
  for (const auto& v : registry.entries())
    for (const auto& i : registry.entries())
      worst = std::max(worst, matrix.per_penalty(v.id, i.id));
  EXPECT_GT(worst, 0.0);
}

TEST(Coexistence, SerialAndParallelRunsMatchByteForByte) {
  CoexistenceConfig cfg;
  cfg.trials = 2;
  cfg.payload_bytes = 8;

  // Compare the deterministic counter section of the metrics JSON; the
  // registry also carries wall-clock profiling histograms (demod_us,
  // prof.*) whose values are timing, not simulation state.
  auto counters_of = [](const std::string& json) {
    const auto begin = json.find("\"counters\":");
    const auto end = json.find(",\"gauges\":");
    EXPECT_NE(begin, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return json.substr(begin, end - begin);
  };

  auto run = [&](const exec::ExecPolicy& policy) {
    obs::Registry registry;
    obs::MetricsSession session{registry};
    auto matrix = run_coexistence_matrix(cfg, policy);
    return std::pair{registry.json(), std::move(matrix)};
  };
  auto [serial_json, serial] = run(exec::ExecPolicy::serial());
  auto [parallel_json, parallel] = run(exec::ExecPolicy::with_threads(8));

  EXPECT_EQ(counters_of(serial_json), counters_of(parallel_json));
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i)
    EXPECT_EQ(serial.cells[i].result, parallel.cells[i].result) << "cell " << i;
}

// ------------------------------------------- attacked fleet campaigns

TEST(AttackCampaign, FleetSurvivesAndCountsAttacks) {
  Rng deploy_rng{2024};
  auto deployment = testbed::Deployment::campus(deploy_rng, Dbm{14.0}, 8);
  Rng img_rng{7};
  auto image = fpga::generate_mcu_program("fw", 8 * 1024, img_rng);

  OtaAttackPlan plan;
  plan.jam_rate = 0.08;
  plan.replay_rate = 0.08;
  testbed::FaultScenario attacked;
  attacked.name = "attacked";
  attacked.policy.max_retries = 200;
  attacked.make_attacker = attacker_factory(plan);

  testbed::FaultScenario rollback;
  rollback.name = "rollback-push";
  rollback.image_version = 1;
  rollback.fleet_version = 5;

  Rng rng{99};
  auto result = testbed::run_fault_campaign(
      deployment, image, ota::UpdateTarget::kMcu, {attacked, rollback}, rng,
      exec::ExecPolicy::serial());

  ASSERT_EQ(result.scenarios.size(), 2u);
  const auto& a = result.scenarios[0];
  EXPECT_EQ(a.successes, a.nodes);  // attacks survived fleet-wide
  EXPECT_GT(a.total_jammed_packets + a.total_replays_dropped, 0u);

  const auto& r = result.scenarios[1];
  EXPECT_EQ(r.successes, 0u);  // rollback push refused everywhere...
  EXPECT_EQ(r.rollback_rejections, r.nodes);
  for (const auto& report : r.per_node) {
    EXPECT_EQ(report.failure, ota::UpdateFailure::kRejectedRollback);
    EXPECT_FALSE(report.rolled_back);  // ...without disturbing the node
  }
}

TEST(AttackCampaign, AttackedCampaignByteIdenticalAcrossThreadCounts) {
  Rng deploy_rng{31};
  auto deployment = testbed::Deployment::campus(deploy_rng, Dbm{14.0}, 12);
  Rng img_rng{5};
  auto image = fpga::generate_mcu_program("fw", 6 * 1024, img_rng);

  OtaAttackPlan plan;
  plan.jam_rate = 0.05;
  plan.forge_ack_rate = 0.02;
  plan.truncate_rate = 0.02;
  plan.replay_rate = 0.05;
  testbed::FaultScenario scenario;
  scenario.name = "combined-attack";
  scenario.policy.max_retries = 200;
  scenario.make_attacker = attacker_factory(plan);

  auto run = [&](const exec::ExecPolicy& policy) {
    obs::Registry registry;
    obs::MetricsSession session{registry};
    Rng rng{77};
    auto result = testbed::run_fault_campaign(
        deployment, image, ota::UpdateTarget::kMcu, {scenario}, rng, policy);
    return std::pair{registry.json(), std::move(result)};
  };

  auto [serial_json, serial] = run(exec::ExecPolicy::serial());
  auto [parallel_json, parallel] = run(exec::ExecPolicy::with_threads(8));

  EXPECT_EQ(serial_json, parallel_json);
  ASSERT_EQ(serial.scenarios.size(), 1u);
  ASSERT_EQ(parallel.scenarios.size(), 1u);
  const auto& ss = serial.scenarios[0];
  const auto& ps = parallel.scenarios[0];
  EXPECT_EQ(ss.total_jammed_packets, ps.total_jammed_packets);
  EXPECT_EQ(ss.total_forged_acks, ps.total_forged_acks);
  EXPECT_EQ(ss.total_truncated_dropped, ps.total_truncated_dropped);
  EXPECT_EQ(ss.total_replays_dropped, ps.total_replays_dropped);
  ASSERT_EQ(ss.per_node.size(), ps.per_node.size());
  for (std::size_t i = 0; i < ss.per_node.size(); ++i) {
    EXPECT_EQ(ss.per_node[i].transfer.link_seed,
              ps.per_node[i].transfer.link_seed);
    EXPECT_EQ(ss.per_node[i].transfer.jammed_packets,
              ps.per_node[i].transfer.jammed_packets);
    EXPECT_EQ(ss.per_node[i].total_time.value(),
              ps.per_node[i].total_time.value());
  }
}

}  // namespace
}  // namespace tinysdr::adversary
