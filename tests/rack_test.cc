// Tests for the rack-scale orchestration layer: the shared power ledger,
// greedy placement across heterogeneous OffloadTargets, and the mixed
// KVS+DNS rack scenario (FPGA NIC + switch ASIC under one orchestrator).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/ondemand/energy_advisor.h"
#include "src/ondemand/rack.h"
#include "src/power/cpu_power.h"
#include "src/row/row_scenario.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/paxos_testbed.h"
#include "src/scenarios/rack_scenario.h"
#include "src/scenarios/scenario_spec.h"
#include "src/sim/simulation.h"
#include "src/workload/arrival.h"
#include "src/workload/etc_workload.h"
#include "src/workload/dns_workload.h"

namespace incod {
namespace {

// ---- Shared power ledger ----

TEST(RackPowerLedgerTest, CommitReleaseAccounting) {
  RackPowerLedger ledger(100.0);
  EXPECT_TRUE(ledger.TryCommit("a", 40.0));
  EXPECT_TRUE(ledger.TryCommit("b", 50.0));
  EXPECT_DOUBLE_EQ(ledger.committed_watts(), 90.0);
  EXPECT_DOUBLE_EQ(ledger.RemainingWatts(), 10.0);
  // Over budget: rejected, state unchanged.
  EXPECT_FALSE(ledger.TryCommit("c", 20.0));
  EXPECT_DOUBLE_EQ(ledger.committed_watts(), 90.0);
  ledger.Release("a");
  EXPECT_DOUBLE_EQ(ledger.committed_watts(), 50.0);
  EXPECT_TRUE(ledger.TryCommit("c", 20.0));
}

TEST(RackPowerLedgerTest, RecommitReplacesNotAdds) {
  RackPowerLedger ledger(100.0);
  EXPECT_TRUE(ledger.TryCommit("a", 60.0));
  // Re-commit under the same key replaces the prior value: 80 fits because
  // the old 60 is released in the same operation.
  EXPECT_TRUE(ledger.TryCommit("a", 80.0));
  EXPECT_DOUBLE_EQ(ledger.committed_watts(), 80.0);
  EXPECT_FALSE(ledger.TryCommit("a", 120.0));
  EXPECT_DOUBLE_EQ(ledger.committed_watts(), 80.0);  // Prior intact.
}

TEST(RackPowerLedgerTest, UnlimitedBudget) {
  RackPowerLedger ledger(0);
  EXPECT_TRUE(ledger.unlimited());
  EXPECT_TRUE(ledger.TryCommit("a", 1e9));
  EXPECT_TRUE(std::isinf(ledger.RemainingWatts()));
}

TEST(RackPowerLedgerTest, NegativeCommitThrows) {
  RackPowerLedger ledger(10.0);
  EXPECT_THROW(ledger.TryCommit("a", -1.0), std::invalid_argument);
}

// ---- Orchestrator decisions against fake targets ----

class FakeTarget : public OffloadTarget {
 public:
  explicit FakeTarget(std::string name, double capacity = 1e6)
      : name_(std::move(name)), capacity_(capacity) {}

  std::string TargetName() const override { return name_; }
  void SetAppActive(bool active) override { active_ = active; }
  bool app_active() const override { return active_; }
  double AppIngressRatePerSecond() const override { return rate_; }
  uint64_t app_ingress_packets() const override { return 0; }
  double ProcessedRatePerSecond() const override { return active_ ? rate_ : 0; }
  double OffloadPowerWatts() const override { return 0; }
  double OffloadCapacityPps() const override { return capacity_; }

  void set_rate(double rate) { rate_ = rate; }

 private:
  std::string name_;
  double capacity_;
  double rate_ = 0;
  bool active_ = false;
};

// Placement shifts go through the real generic core (classifier flip on the
// fake target; no bound apps, so no state moves) — the orchestrator only
// ever drives StateTransferMigrators.
class FakeMigrator : public StateTransferMigrator {
 public:
  FakeMigrator(Simulation& sim, FakeTarget& target)
      : StateTransferMigrator(sim, target,
                              Options::FromPolicy(ParkPolicy::kKeepWarm)) {}
};

struct OrchestratorHarness {
  OrchestratorHarness()
      : cheap("cheap-asic"), pricey("pricey-fpga"),
        cheap_migrator(sim, cheap), pricey_migrator(sim, pricey) {}

  // Absolute-scale models (host included on both sides, like the real
  // scenario): software idles at 35 W and climbs with rate; the targets
  // hold flat 65 W / 45 W, i.e. 30 W / 10 W of offload headroom.
  RackAppSpec AppWithBothOptions(double rate) {
    rate_value = rate;
    RackAppSpec spec;
    spec.name = "app";
    spec.software_watts = [](double r) { return 35.0 + r / 5000.0; };
    spec.measured_rate_pps = [this] { return rate_value; };
    spec.options.push_back(RackPlacementOption{
        &pricey, &pricey_migrator, [](double) { return 65.0; }});
    spec.options.push_back(RackPlacementOption{
        &cheap, &cheap_migrator, [](double) { return 45.0; }});
    return spec;
  }

  Simulation sim;
  FakeTarget cheap;
  FakeTarget pricey;
  FakeMigrator cheap_migrator;
  FakeMigrator pricey_migrator;
  double rate_value = 0;
};

TEST(RackOrchestratorTest, GreedyPicksCheapestEligibleTarget) {
  OrchestratorHarness h;
  RackOrchestrator orchestrator(h.sim, RackOrchestratorConfig{});
  const size_t app = orchestrator.AddApp(h.AppWithBothOptions(200000));
  orchestrator.Start();
  h.sim.RunUntil(Seconds(1));
  ASSERT_NE(orchestrator.current_option(app), nullptr);
  EXPECT_EQ(orchestrator.current_option(app)->target, &h.cheap);
  EXPECT_EQ(orchestrator.ShiftsToTarget(h.cheap), 1u);
  EXPECT_EQ(orchestrator.ShiftsToTarget(h.pricey), 0u);
  EXPECT_TRUE(h.cheap.app_active());
}

TEST(RackOrchestratorTest, CapacityExhaustionFallsBackToNextTarget) {
  OrchestratorHarness h;
  // The cheap target can only absorb 50 kpps; the app runs at 200 kpps.
  FakeTarget tiny("tiny-asic", 50000);
  FakeMigrator tiny_migrator(h.sim, tiny);
  RackAppSpec spec = h.AppWithBothOptions(200000);
  spec.options[1] = RackPlacementOption{&tiny, &tiny_migrator,
                                        [](double) { return 45.0; }};
  RackOrchestrator orchestrator(h.sim, RackOrchestratorConfig{});
  const size_t app = orchestrator.AddApp(std::move(spec));
  orchestrator.Start();
  h.sim.RunUntil(Seconds(1));
  ASSERT_NE(orchestrator.current_option(app), nullptr);
  EXPECT_EQ(orchestrator.current_option(app)->target, &h.pricey);
}

TEST(RackOrchestratorTest, SharedBudgetBlocksSecondApp) {
  OrchestratorHarness h;
  RackOrchestratorConfig config;
  // Each placement consumes 45 - 35 = 10 W of headroom: room for one only.
  config.power_budget_watts = 15.0;
  RackOrchestrator orchestrator(h.sim, config);

  FakeTarget other("other-asic");
  FakeMigrator other_migrator(h.sim, other);
  RackAppSpec first = h.AppWithBothOptions(200000);
  first.name = "first";
  first.options.erase(first.options.begin());  // Cheap option only.
  RackAppSpec second;
  second.name = "second";
  second.software_watts = [](double r) { return 35.0 + r / 5000.0; };
  second.measured_rate_pps = [] { return 200000.0; };
  second.options.push_back(RackPlacementOption{
      &other, &other_migrator, [](double) { return 45.0; }});
  const size_t a = orchestrator.AddApp(std::move(first));
  const size_t b = orchestrator.AddApp(std::move(second));
  orchestrator.Start();
  h.sim.RunUntil(Seconds(1));
  // First-registered app won the headroom; the second stays home.
  EXPECT_NE(orchestrator.current_option(a), nullptr);
  EXPECT_EQ(orchestrator.current_option(b), nullptr);
  EXPECT_LE(orchestrator.ledger().committed_watts(),
            orchestrator.ledger().budget_watts());
}

TEST(RackOrchestratorTest, LedgerCommitsOffloadHeadroomNotAbsoluteWatts) {
  OrchestratorHarness h;
  RackOrchestratorConfig config;
  config.min_dwell = Milliseconds(200);
  RackOrchestrator orchestrator(h.sim, config);
  const size_t app = orchestrator.AddApp(h.AppWithBothOptions(200000));
  orchestrator.Start();
  h.sim.RunUntil(Seconds(1));
  ASSERT_NE(orchestrator.current_option(app), nullptr);
  // The ledger holds the increment over software idle (45 - 35 = 10 W),
  // not the 45 W absolute placement power — host idle draws either way.
  EXPECT_DOUBLE_EQ(orchestrator.ledger().committed_watts(), 10.0);
  // A milder rate (60 kpps -> software 47 W) still loses to the 45 W
  // placement within the margin: the app stays put, commitment unchanged.
  h.rate_value = 60000;
  h.sim.RunUntil(Seconds(2));
  EXPECT_NE(orchestrator.current_option(app), nullptr);
  EXPECT_DOUBLE_EQ(orchestrator.ledger().committed_watts(), 10.0);
}

TEST(RackOrchestratorTest, ReturnsHomeWhenNetworkStopsPaying) {
  Simulation sim;
  FakeTarget target("fpga");
  FakeMigrator migrator(sim, target);
  double rate = 300000;
  RackAppSpec spec;
  spec.name = "app";
  spec.software_watts = [](double r) { return 35.0 + r / 10000.0; };  // 65 W @300k.
  spec.measured_rate_pps = [&rate] { return rate; };
  spec.options.push_back(RackPlacementOption{
      &target, &migrator, [](double) { return 45.0; }});
  RackOrchestratorConfig config;
  config.min_dwell = Milliseconds(200);
  RackOrchestrator orchestrator(sim, config);
  const size_t app = orchestrator.AddApp(std::move(spec));
  orchestrator.Start();
  sim.RunUntil(Seconds(1));
  ASSERT_NE(orchestrator.current_option(app), nullptr);
  rate = 0;  // Software now 35 W vs 45 W network: shift home.
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(orchestrator.current_option(app), nullptr);
  EXPECT_FALSE(target.app_active());
  EXPECT_DOUBLE_EQ(orchestrator.ledger().committed_watts(), 0.0);
  EXPECT_EQ(orchestrator.total_shifts(), 2u);
}

// §9.1's model-driven enhancement on a real LaKe testbed: the orchestrator
// prices both placements with the paper's curves at the classifier-visible
// rate and shifts on the §8 saving margin, in both directions.
TEST(RackOrchestratorTest, PaperCurvesPlaceLakeByOfferedRate) {
  struct Case {
    const char* name;
    double rate_pps;
    SimTime stop_at;  // Client stops sending here.
    bool offloaded_at_1s;
    bool offloaded_at_3s;
  };
  const Case cases[] = {
      // Software would draw ~85 W against LaKe's ~59 W: shift and stay.
      {"high-rate", 400000, Seconds(3), true, true},
      // Far below the ~86 kpps tipping point: software stays cheaper.
      {"low-rate", 20000, Seconds(3), false, false},
      // Silence after 1 s: software is cheaper at ~0 rate, so shift back.
      {"load-drops", 400000, Seconds(1), true, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Simulation sim(/*seed=*/1);
    KvsTestbedOptions options;
    options.lake_initially_active = false;
    KvsTestbed testbed(sim, options);
    testbed.Prefill(1000, 64);
    const NodeId service = testbed.ServiceNode();
    LoadClient& client = testbed.AddClient(
        LoadClientConfig{}, std::make_unique<ConstantArrival>(c.rate_pps),
        [service](NodeId src, uint64_t id, SimTime now, Rng& rng) {
          const auto key = static_cast<uint64_t>(rng.UniformInt(0, 999));
          return MakeKvRequestPacket(src, service, KvRequest{KvOp::kGet, key, 0},
                                     id, now);
        });
    client.StopAt(c.stop_at);
    FpgaNic& fpga = *testbed.fpga();
    StateTransferMigrator migrator(sim, fpga);

    RackAppSpec spec;
    spec.name = "kvs";
    spec.software_watts = [](double r) {
      return MakeServerRatePower(I7MemcachedCurve(), Microseconds(4), 4)(r) + 4.0;
    };
    spec.measured_rate_pps = [&fpga] { return fpga.AppIngressRatePerSecond(); };
    spec.options.push_back(RackPlacementOption{
        &fpga, &migrator, MakeFpgaRatePower(35.0, 24.0, 1.0, 13e6)});
    RackOrchestratorConfig config;
    config.min_dwell = Milliseconds(100);
    RackOrchestrator orchestrator(sim, config);
    const size_t app = orchestrator.AddApp(std::move(spec));
    orchestrator.Start();
    client.Start();

    sim.RunUntil(Seconds(1));
    EXPECT_EQ(orchestrator.current_option(app) != nullptr, c.offloaded_at_1s);
    EXPECT_EQ(migrator.placement() == Placement::kNetwork, c.offloaded_at_1s);
    sim.RunUntil(Seconds(3));
    EXPECT_EQ(orchestrator.current_option(app) != nullptr, c.offloaded_at_3s);
    EXPECT_EQ(migrator.placement() == Placement::kNetwork, c.offloaded_at_3s);
    EXPECT_EQ(fpga.app_active(), c.offloaded_at_3s);
  }
}

TEST(RackOrchestratorTest, RejectsIncompleteSpecs) {
  Simulation sim;
  RackOrchestrator orchestrator(sim);
  RackAppSpec spec;
  spec.name = "bad";
  EXPECT_THROW(orchestrator.AddApp(spec), std::invalid_argument);
}

TEST(RackOrchestratorTest, RejectsDuplicateOrEmptyAppNames) {
  OrchestratorHarness h;
  RackOrchestrator orchestrator(h.sim);
  orchestrator.AddApp(h.AppWithBothOptions(100000));  // name "app"
  RackAppSpec duplicate = h.AppWithBothOptions(100000);
  EXPECT_THROW(orchestrator.AddApp(std::move(duplicate)), std::invalid_argument);
  RackAppSpec unnamed = h.AppWithBothOptions(100000);
  unnamed.name.clear();
  EXPECT_THROW(orchestrator.AddApp(std::move(unnamed)), std::invalid_argument);
}

TEST(RackOrchestratorTest, MigratesToCheaperTargetWhenCapacityFrees) {
  // App A fills the cheap target; app B settles for the pricey one. When
  // A's load collapses enough to fit both, B must migrate over to keep the
  // greedy cheapest-eligible-target invariant.
  Simulation sim;
  FakeTarget cheap("cheap-asic", 250000);
  FakeTarget pricey("pricey-fpga");
  FakeMigrator cheap_a(sim, cheap), cheap_b(sim, cheap), pricey_b(sim, pricey);
  double rate_a = 200000, rate_b = 100000;

  RackAppSpec a;
  a.name = "a";
  a.software_watts = [](double r) { return 35.0 + r / 5000.0; };
  a.measured_rate_pps = [&rate_a] { return rate_a; };
  a.options.push_back(RackPlacementOption{&cheap, &cheap_a, [](double) { return 45.0; }});
  RackAppSpec b;
  b.name = "b";
  b.software_watts = [](double r) { return 35.0 + r / 5000.0; };
  b.measured_rate_pps = [&rate_b] { return rate_b; };
  b.options.push_back(RackPlacementOption{&cheap, &cheap_b, [](double) { return 45.0; }});
  b.options.push_back(RackPlacementOption{&pricey, &pricey_b, [](double) { return 50.0; }});

  RackOrchestratorConfig config;
  config.min_dwell = Milliseconds(200);
  RackOrchestrator orchestrator(sim, config);
  const size_t app_a = orchestrator.AddApp(std::move(a));
  const size_t app_b = orchestrator.AddApp(std::move(b));
  orchestrator.Start();
  sim.RunUntil(Seconds(1));
  ASSERT_NE(orchestrator.current_option(app_a), nullptr);
  ASSERT_NE(orchestrator.current_option(app_b), nullptr);
  EXPECT_EQ(orchestrator.current_option(app_a)->target, &cheap);
  EXPECT_EQ(orchestrator.current_option(app_b)->target, &pricey);

  rate_a = 50000;  // 50k + 100k now fit the cheap target's 250k.
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(orchestrator.current_option(app_b)->target, &cheap);
  EXPECT_FALSE(pricey.app_active());
  // Ledger reflects the two real placements, without phantom entries.
  EXPECT_EQ(orchestrator.ledger().commitments().size(), 2u);
  EXPECT_DOUBLE_EQ(orchestrator.ledger().committed_watts(), 20.0);
}

// ---- Crash recovery units: detection, re-placement, power caps ----

RackOrchestratorConfig RecoveryConfig() {
  RackOrchestratorConfig config;
  config.heartbeat_period = Milliseconds(2);
  config.failure_threshold = 2;
  // Economics passes out of the way: recovery is the only mover.
  config.check_period = Seconds(10);
  config.checkpoint_period = Milliseconds(1);
  return config;
}

TEST(RackRecoveryTest, HeartbeatDetectsDeathAndReplacesOnSurvivor) {
  OrchestratorHarness h;
  RackOrchestrator orchestrator(h.sim, RecoveryConfig());
  const size_t app = orchestrator.AddApp(h.AppWithBothOptions(200000));
  orchestrator.Start();
  orchestrator.ForcePlacement(app, 1);  // The cheap target.
  ASSERT_EQ(orchestrator.current_option(app)->target, &h.cheap);

  const SimTime kill_at = Milliseconds(10);
  h.sim.Schedule(kill_at, [&h] { h.cheap.KillEngine(); });
  h.sim.RunUntil(Milliseconds(30));

  EXPECT_EQ(orchestrator.failures_detected(), 1u);
  EXPECT_EQ(orchestrator.recoveries(), 1u);
  ASSERT_NE(orchestrator.current_option(app), nullptr);
  EXPECT_EQ(orchestrator.current_option(app)->target, &h.pricey);
  EXPECT_TRUE(h.pricey.app_active());
  // Detection latency is bounded by threshold consecutive missed heartbeats.
  SimTime detected_at = -1;
  bool saw_recovery = false;
  for (const RackDecisionRecord& record : orchestrator.decision_log()) {
    if (record.kind == RackDecisionRecord::Kind::kFailure) {
      detected_at = record.at;
      EXPECT_EQ(record.target, h.cheap.TargetName());
    }
    if (record.kind == RackDecisionRecord::Kind::kRecovery) {
      saw_recovery = true;
      EXPECT_EQ(record.app, "app");
      EXPECT_EQ(record.target, h.pricey.TargetName());
      // The fake migrator carries no typed state, so no checkpoint existed
      // and the restore is cold.
      EXPECT_FALSE(record.warm);
    }
  }
  ASSERT_GE(detected_at, kill_at);
  EXPECT_LE(detected_at, kill_at + 3 * Milliseconds(2));
  EXPECT_TRUE(saw_recovery);
  EXPECT_EQ(orchestrator.checkpoints_taken(), 0u);  // Nothing to snapshot.
  EXPECT_FALSE(orchestrator.has_checkpoint(app));
  // The replacement placement is a real ledger commitment.
  EXPECT_EQ(orchestrator.ledger().commitments().size(), 1u);
}

TEST(RackRecoveryTest, RecoveryFallsBackToHostWithoutSurvivor) {
  OrchestratorHarness h;
  RackOrchestrator orchestrator(h.sim, RecoveryConfig());
  RackAppSpec spec = h.AppWithBothOptions(200000);
  spec.options.pop_back();  // Pricey is the only option.
  const size_t app = orchestrator.AddApp(std::move(spec));
  orchestrator.Start();
  orchestrator.ForcePlacement(app, 0);
  h.sim.Schedule(Milliseconds(10), [&h] { h.pricey.KillEngine(); });
  h.sim.RunUntil(Milliseconds(30));

  EXPECT_EQ(orchestrator.failures_detected(), 1u);
  EXPECT_EQ(orchestrator.recoveries(), 1u);
  EXPECT_EQ(orchestrator.current_option(app), nullptr);  // Home.
  EXPECT_TRUE(orchestrator.ledger().commitments().empty());
  bool saw_recovery = false;
  for (const RackDecisionRecord& record : orchestrator.decision_log()) {
    if (record.kind == RackDecisionRecord::Kind::kRecovery) {
      saw_recovery = true;
      EXPECT_TRUE(record.target.empty());
    }
  }
  EXPECT_TRUE(saw_recovery);
}

// Regression: before the reachability channel, a flapping heartbeat path
// was indistinguishable from dead silicon — the detector fired a spurious
// failure + recovery and abandoned a perfectly healthy placement.
TEST(RackRecoveryTest, LinkFlapDoesNotTriggerRecovery) {
  OrchestratorHarness h;
  RackOrchestrator orchestrator(h.sim, RecoveryConfig());
  const size_t app = orchestrator.AddApp(h.AppWithBothOptions(200000));
  bool reachable = true;
  orchestrator.SetHeartbeatReachability(&h.cheap, [&reachable] { return reachable; });
  orchestrator.Start();
  orchestrator.ForcePlacement(app, 1);  // The cheap target.

  // Flap 1 heals inside the failure window (threshold 2 x 2 ms): invisible.
  h.sim.Schedule(Milliseconds(10), [&reachable] { reachable = false; });
  h.sim.Schedule(Milliseconds(11), [&reachable] { reachable = true; });
  // Flap 2 outlasts the window many times over, device alive throughout.
  h.sim.Schedule(Milliseconds(20), [&reachable] { reachable = false; });
  h.sim.Schedule(Milliseconds(40), [&reachable] { reachable = true; });
  h.sim.RunUntil(Milliseconds(60));

  // Neither flap is a death: no failure, no recovery, placement intact.
  EXPECT_EQ(orchestrator.failures_detected(), 0u);
  EXPECT_EQ(orchestrator.recoveries(), 0u);
  ASSERT_NE(orchestrator.current_option(app), nullptr);
  EXPECT_EQ(orchestrator.current_option(app)->target, &h.cheap);
  // Only the long flap crossed the threshold, logged once per streak.
  EXPECT_EQ(orchestrator.flap_suppressions(), 1u);
  uint64_t flap_records = 0;
  for (const RackDecisionRecord& record : orchestrator.decision_log()) {
    if (record.kind == RackDecisionRecord::Kind::kFlapSuppressed) {
      ++flap_records;
      EXPECT_EQ(record.target, h.cheap.TargetName());
    }
  }
  EXPECT_EQ(flap_records, 1u);

  // A real death behind a flap is still caught: misses keep accruing while
  // the path is down, and the moment it answers with dead silicon the
  // detector declares the failure and recovery replaces onto the survivor.
  // (Absolute times: the clock already sits at 60 ms here.)
  h.sim.ScheduleAt(Milliseconds(70), [&reachable] { reachable = false; });
  h.sim.ScheduleAt(Milliseconds(72), [&h] { h.cheap.KillEngine(); });
  h.sim.ScheduleAt(Milliseconds(80), [&reachable] { reachable = true; });
  h.sim.RunUntil(Milliseconds(100));
  EXPECT_EQ(orchestrator.failures_detected(), 1u);
  EXPECT_EQ(orchestrator.recoveries(), 1u);
  ASSERT_NE(orchestrator.current_option(app), nullptr);
  EXPECT_EQ(orchestrator.current_option(app)->target, &h.pricey);
}

TEST(RackRecoveryTest, PowerCapEvictsLargestCommitmentsFirst) {
  OrchestratorHarness h;
  FakeMigrator pricey_b(h.sim, h.pricey);
  RackOrchestratorConfig config = RecoveryConfig();
  config.power_budget_watts = 100.0;
  RackOrchestrator orchestrator(h.sim, config);
  // App a on the cheap target commits 10 W of headroom (45 - 35); app b on
  // the pricey one commits 30 W (65 - 35).
  const size_t app_a = orchestrator.AddApp(h.AppWithBothOptions(200000));
  RackAppSpec b;
  b.name = "b";
  b.software_watts = [](double r) { return 35.0 + r / 5000.0; };
  b.measured_rate_pps = [] { return 100000.0; };
  b.options.push_back(RackPlacementOption{&h.pricey, &pricey_b,
                                          [](double) { return 65.0; }});
  const size_t app_b = orchestrator.AddApp(std::move(b));
  orchestrator.Start();
  orchestrator.ForcePlacement(app_a, 1);
  orchestrator.ForcePlacement(app_b, 0);
  EXPECT_DOUBLE_EQ(orchestrator.ledger().committed_watts(), 40.0);

  // Brownout to 15 W: the 30 W commitment (app b) must go; 10 W still fits.
  orchestrator.ApplyPowerCap(15.0);
  EXPECT_DOUBLE_EQ(orchestrator.ledger().budget_watts(), 15.0);
  EXPECT_DOUBLE_EQ(orchestrator.ledger().committed_watts(), 10.0);
  EXPECT_EQ(orchestrator.current_option(app_b), nullptr);
  ASSERT_NE(orchestrator.current_option(app_a), nullptr);

  // Brownout below everything: the rack runs entirely in software.
  orchestrator.ApplyPowerCap(5.0);
  EXPECT_DOUBLE_EQ(orchestrator.ledger().committed_watts(), 0.0);
  EXPECT_EQ(orchestrator.current_option(app_a), nullptr);
  // Recovery restores the cap's headroom accounting, not the placements:
  // raising the cap back does not re-place by itself (the next economics
  // pass does), but the ledger must accept new commitments again.
  orchestrator.ApplyPowerCap(100.0);
  orchestrator.ForcePlacement(app_a, 1);
  EXPECT_DOUBLE_EQ(orchestrator.ledger().committed_watts(), 10.0);
}

TEST(RackRecoveryTest, ForcePlacementRespectsLedgerAndLogsShift) {
  OrchestratorHarness h;
  RackOrchestratorConfig config = RecoveryConfig();
  config.power_budget_watts = 15.0;  // Fits cheap (10 W), not pricey (30 W).
  RackOrchestrator orchestrator(h.sim, config);
  const size_t app = orchestrator.AddApp(h.AppWithBothOptions(200000));
  orchestrator.Start();
  orchestrator.ForcePlacement(app, 1);
  EXPECT_EQ(orchestrator.total_shifts(), 1u);
  EXPECT_EQ(orchestrator.ShiftsToTarget(h.cheap), 1u);
  // Re-forcing the current placement is a no-op, not a second shift.
  orchestrator.ForcePlacement(app, 1);
  EXPECT_EQ(orchestrator.total_shifts(), 1u);
  // The pricey option cannot fit the 15 W budget.
  EXPECT_THROW(orchestrator.ForcePlacement(app, 0), std::logic_error);
}

// ---- Warm vs cold orchestrator shifts (the generic state-transfer path) ----

// Differential: an orchestrator-driven warm KVS shift carries the host
// store's contents into LaKe's caches, so post-shift lookups hit in
// hardware; the cold shift (the paper's behaviour) starts empty and misses
// to the host until egress observation re-warms the caches.
TEST(RackWarmMigrationTest, WarmShiftPreservesKvsCacheContents) {
  struct Result {
    bool offloaded = false;
    uint64_t misses_after_shift = 0;
    uint64_t state_transfers = 0;
    uint64_t warm_shifts = 0;
    size_t l2_size_at_shift = 0;
  };
  auto run = [](bool warm) {
    Simulation sim(/*seed=*/7);
    MixedRackOptions options;
    options.enable_paxos = false;
    options.warm.kvs = warm;
    options.orchestrator.min_dwell = Milliseconds(200);
    MixedRackScenario rack(sim, options);
    // Warm only the authoritative host store: whatever LaKe holds after the
    // shift came through the migrator (or post-shift traffic).
    constexpr uint64_t kKeys = 5000;
    for (uint64_t k = 0; k < kKeys; ++k) {
      rack.memcached().store().Set(k, 64);
    }

    EtcWorkloadConfig etc_config;
    etc_config.kvs_service = kRackKvsServerNode;
    etc_config.key_population = kKeys;
    EtcWorkload etc(etc_config);
    LoadClient& client = rack.AddKvsClient(
        LoadClientConfig{}, std::make_unique<PoissonArrival>(400000.0),
        etc.MakeFactory());

    Result result;
    uint64_t misses_at_shift = 0;
    SchedulePeriodic(sim, Milliseconds(10), Milliseconds(10), [&] {
      if (!result.offloaded &&
          rack.kvs_migrator().placement() == Placement::kNetwork) {
        result.offloaded = true;
        result.l2_size_at_shift = rack.lake().l2()->size();
        misses_at_shift = rack.lake().misses_to_host();
      }
      return sim.Now() < Seconds(1);
    });

    rack.orchestrator().Start();
    client.Start();
    sim.RunUntil(Seconds(1));
    result.misses_after_shift = rack.lake().misses_to_host() - misses_at_shift;
    result.state_transfers = rack.kvs_migrator().state_transfers();
    result.warm_shifts = rack.orchestrator().warm_shifts();
    return result;
  };

  const Result warm = run(true);
  const Result cold = run(false);
  ASSERT_TRUE(warm.offloaded);
  ASSERT_TRUE(cold.offloaded);
  // The warm shift moved the typed snapshot; the cold shift moved nothing.
  EXPECT_GE(warm.state_transfers, 1u);
  EXPECT_EQ(cold.state_transfers, 0u);
  EXPECT_GE(warm.warm_shifts, 1u);
  EXPECT_EQ(cold.warm_shifts, 0u);
  // Cache contents survived the warm shift: L2 already holds the store at
  // the flip, and post-shift traffic hits in hardware instead of punting.
  EXPECT_EQ(warm.l2_size_at_shift, 5000u);
  EXPECT_EQ(cold.l2_size_at_shift, 0u);
  EXPECT_EQ(warm.misses_after_shift, 0u);
  EXPECT_GT(cold.misses_after_shift, 500u);
}

// Acceptance for the §10 placement seam: a rack built declaratively from a
// ScenarioSpec hosts the registry KVS on a SmartNIC, and an
// orchestrator-driven warm shift host->SmartNIC carries the store contents
// into the board's caches — zero post-shift misses, against the cold
// differential (the paper's behaviour: every post-shift lookup punts).
TEST(RackWarmMigrationTest, ScenarioSpecRackWarmShiftsKvsOntoSmartNic) {
  struct Result {
    bool offloaded = false;
    uint64_t misses_after_shift = 0;
    uint64_t state_transfers = 0;
    uint64_t warm_shifts = 0;
    size_t l2_size_at_shift = 0;
    uint64_t served_in_hardware = 0;
  };
  auto run = [](bool warm) {
    Simulation sim(/*seed=*/21);
    constexpr NodeId kHostNode = 1;
    constexpr NodeId kBoardNode = 50;
    constexpr NodeId kClientNode = 100;

    ScenarioSpec spec;
    spec.name = "smartnic-rack";
    spec.tor.present = true;
    ScenarioMemberSpec member;
    member.name = "kvs";
    member.host.config.name = "kvs-host";
    member.host.config.node = kHostNode;
    member.host.apps = {"kvs"};
    member.target.kind = ScenarioTargetKind::kSmartNic;
    member.target.name = "kvs-smartnic";
    member.target.smartnic_preset = "accelnet-fpga";
    member.target.device_node = kBoardNode;
    member.target.app = "kvs";
    member.target.initially_active = false;  // Migrator parks the placement.
    member.switch_routes = {kHostNode, kBoardNode};
    spec.members.push_back(std::move(member));

    ScenarioTestbed testbed(sim, std::move(spec));
    ScenarioMember& built = testbed.member("kvs");
    auto* lake = dynamic_cast<LakeCache*>(built.offload_app.get());
    if (built.smartnic == nullptr || lake == nullptr) {
      throw std::logic_error("spec did not build a SmartNIC-hosted kvs");
    }
    auto* memcached = dynamic_cast<MemcachedServer*>(built.host_apps.front().get());
    if (memcached == nullptr) {
      throw std::logic_error("unexpected concrete app types");
    }

    // Warm only the authoritative host store: whatever the board holds
    // after the shift came through the migrator (or post-shift traffic).
    constexpr uint64_t kKeys = 5000;
    for (uint64_t k = 0; k < kKeys; ++k) {
      memcached->store().Set(k, 64);
    }

    StateTransferMigrator migrator(
        sim, *built.smartnic,
        StateTransferMigrator::Options::FromPolicy(ParkPolicy::kGatedPark),
        memcached, built.offload_app.get());

    RackOrchestratorConfig config;
    config.min_dwell = Milliseconds(200);
    RackOrchestrator orchestrator(sim, config);
    RackAppSpec rack_app;
    rack_app.name = "kvs";
    rack_app.warm_migration = warm;
    rack_app.software_watts = [](double r) { return 35.0 + r / 5000.0; };
    SmartNic* board = built.smartnic;
    rack_app.measured_rate_pps = [board] { return board->AppIngressRatePerSecond(); };
    // The advisor models the same firmware ceiling the board enforces: the
    // app's per-arch Mpps fraction on this preset's architecture.
    const double app_fraction =
        lake->OffloadProfile().smartnic.MppsFractionFor(board->preset().arch);
    rack_app.options.push_back(RackPlacementOption{
        board, &migrator,
        MakeSmartNicRatePower(/*host_idle_watts=*/35.0, board->preset(), app_fraction)});
    orchestrator.AddApp(std::move(rack_app));

    EtcWorkloadConfig etc_config;
    etc_config.kvs_service = kHostNode;
    etc_config.key_population = kKeys;
    EtcWorkload etc(etc_config);
    LoadClientConfig client_config;
    client_config.node = kClientNode;
    LoadClient& client = testbed.AddTorClient(
        std::move(client_config), std::make_unique<PoissonArrival>(400000.0),
        etc.MakeFactory());

    Result result;
    uint64_t misses_at_shift = 0;
    SchedulePeriodic(sim, Milliseconds(10), Milliseconds(10), [&] {
      if (!result.offloaded && migrator.placement() == Placement::kNetwork) {
        result.offloaded = true;
        result.l2_size_at_shift = lake->l2()->size();
        misses_at_shift = lake->misses_to_host();
      }
      return sim.Now() < Seconds(1);
    });

    orchestrator.Start();
    client.Start();
    sim.RunUntil(Seconds(1));
    result.misses_after_shift = lake->misses_to_host() - misses_at_shift;
    result.state_transfers = migrator.state_transfers();
    result.warm_shifts = orchestrator.warm_shifts();
    result.served_in_hardware = built.smartnic->processed_in_hardware();
    return result;
  };

  const Result warm = run(true);
  const Result cold = run(false);
  ASSERT_TRUE(warm.offloaded);
  ASSERT_TRUE(cold.offloaded);
  EXPECT_GE(warm.state_transfers, 1u);
  EXPECT_EQ(cold.state_transfers, 0u);
  EXPECT_GE(warm.warm_shifts, 1u);
  EXPECT_EQ(cold.warm_shifts, 0u);
  // The typed snapshot arrived with the flip: the board's L2 already holds
  // the store, and no post-shift lookup ever punts to the host.
  EXPECT_EQ(warm.l2_size_at_shift, 5000u);
  EXPECT_EQ(cold.l2_size_at_shift, 0u);
  EXPECT_EQ(warm.misses_after_shift, 0u);
  EXPECT_GT(cold.misses_after_shift, 500u);
  EXPECT_GT(warm.served_in_hardware, 0u);
}

// Differential: an orchestrator-driven warm Paxos leader shift carries
// ballot + sequence through the typed snapshot, so the incoming hardware
// leader continues without re-learning; the cold shift resets to sequence 1
// and spends ~a client timeout recovering (Fig 7's gap).
TEST(RackWarmMigrationTest, WarmShiftPreservesPaxosBallotAndSequence) {
  struct Result {
    bool offloaded = false;
    uint64_t client_retries = 0;
    uint64_t hw_sequence_jumps = 0;
    uint64_t state_transfers = 0;
    uint16_t hw_ballot = 0;
    uint32_t hw_next_instance = 0;
    uint32_t sw_next_instance_at_shift = 0;
  };
  auto run = [](bool warm) {
    Simulation sim(/*seed=*/9);
    PaxosTestbedOptions options;
    options.deployment = PaxosDeployment::kP4xosFpga;
    options.dual_leader = true;
    options.client.requests_per_second = 10000;
    options.client.retry_timeout = Milliseconds(100);
    PaxosTestbed testbed(sim, options);

    PaxosLeaderMigrator migrator(sim, testbed.net_switch(), kPaxosLeaderService,
                                 *testbed.software_leader(), testbed.leader_port(),
                                 *testbed.sut_fpga(), *testbed.fpga_leader(),
                                 testbed.leader_port());

    // Orchestrator decision: the host placement is made expensive so the
    // leader shifts into the P4xos NIC through the generic core; the
    // per-app policy decides whether state rides along.
    RackOrchestratorConfig config;
    config.min_dwell = Milliseconds(200);
    RackOrchestrator orchestrator(sim, config);
    RackAppSpec spec;
    spec.name = "paxos";
    spec.warm_migration = warm;
    spec.software_watts = [](double) { return 100.0; };
    FpgaNic* fpga = testbed.sut_fpga();
    spec.measured_rate_pps = [fpga] { return fpga->AppIngressRatePerSecond(); };
    spec.options.push_back(RackPlacementOption{
        fpga, &migrator, [](double) { return 50.0; }});
    orchestrator.AddApp(std::move(spec));

    Result result;
    SchedulePeriodic(sim, Milliseconds(10), Milliseconds(10), [&] {
      if (!result.offloaded && migrator.placement() == Placement::kNetwork) {
        result.offloaded = true;
        result.sw_next_instance_at_shift =
            testbed.software_leader()->state().next_instance();
      }
      return sim.Now() < Seconds(2);
    });

    testbed.client().Start();
    orchestrator.Start();
    sim.RunUntil(Seconds(2));
    result.client_retries = testbed.client().retries();
    result.hw_sequence_jumps = testbed.fpga_leader()->leader()->sequence_jumps();
    result.state_transfers = migrator.state_transfers();
    result.hw_ballot = testbed.fpga_leader()->leader()->ballot();
    result.hw_next_instance = testbed.fpga_leader()->leader()->next_instance();
    return result;
  };

  const Result warm = run(true);
  const Result cold = run(false);
  ASSERT_TRUE(warm.offloaded);
  ASSERT_TRUE(cold.offloaded);
  EXPECT_GE(warm.state_transfers, 1u);
  EXPECT_EQ(cold.state_transfers, 0u);
  // Sequence continuity: the warm hardware leader took over at (or past)
  // the software leader's position without re-learning; the cold one reset
  // and had to jump when the acceptors taught it the real sequence.
  EXPECT_EQ(warm.hw_sequence_jumps, 0u);
  EXPECT_GE(cold.hw_sequence_jumps, 1u);
  EXPECT_GE(warm.hw_next_instance, warm.sw_next_instance_at_shift);
  // Ballot monotonicity holds on both paths (a new leader never reuses an
  // old ballot).
  EXPECT_GT(warm.hw_ballot, 1u);
  EXPECT_GT(cold.hw_ballot, 1u);
  // No service gap on the warm path; the cold path burned client retries.
  EXPECT_EQ(warm.client_retries, 0u);
  EXPECT_GT(cold.client_retries, 0u);
}

// The trace-driven rack (§9.3) as a one-rack row: registry-name-only apps,
// each with a parked FPGA placement, under the rack orchestrator, with the
// row's Google-trace playback driving the hosts' background load and so the
// placement decisions.
TEST(TraceRowTest, TraceLoadDrivesGenericWarmShifts) {
  ShardedSimulation::Options sharded;
  sharded.num_shards = 2;  // The rack plus the spine.
  sharded.mode = ShardedSimulation::Mode::kSingleQueue;
  sharded.seed = 13;
  ShardedSimulation ssim(sharded);

  RowSpec spec;
  spec.trace.enabled = true;
  spec.trace.trace = {.num_tasks = 400, .num_nodes = 2};
  spec.trace.sim_horizon = Seconds(2);
  RowRackSpec& rack = spec.racks.emplace_back();
  rack.scenario.name = "trace-rack";
  rack.scenario.tor.present = true;
  rack.scenario.tor.asic = true;
  rack.scenario.tor.metered = true;
  rack.orchestrate = true;
  rack.orchestrator.min_dwell = Milliseconds(300);
  const std::vector<std::pair<std::string, ScenarioWorkloadSpec::Kind>> apps = {
      {"kvs", ScenarioWorkloadSpec::Kind::kKvUniformGets},
      {"dns", ScenarioWorkloadSpec::Kind::kDnsQueries}};
  for (size_t i = 0; i < apps.size(); ++i) {
    const NodeId host = 1 + static_cast<NodeId>(i);
    const NodeId device = 50 + static_cast<NodeId>(i);
    ScenarioMemberSpec& member = rack.scenario.members.emplace_back();
    member.name = apps[i].first + "-" + std::to_string(i);
    member.link_name = member.name + "-10ge";
    member.host.config.name = member.name + "-host";
    member.host.config.node = host;
    member.host.config.num_cores = 4;
    member.host.config.power_curve = I7SyntheticCurve();
    member.host.apps = {apps[i].first};
    member.target.kind = ScenarioTargetKind::kFpgaNic;
    member.target.name = member.name + "-netfpga";
    member.target.device_node = device;
    member.target.app = apps[i].first;
    member.target.initially_active = false;  // The migrator parks it.
    member.switch_routes = {host, device};
    RowClientSpec& client = rack.clients.emplace_back();
    client.client.node = 100 + static_cast<NodeId>(i);
    client.rate_per_second = 150000;
    client.workload.kind = apps[i].second;
    client.service = host;
    rack.apps.push_back(RowAppSpec{.member = i});
  }
  RowScenario row(ssim, std::move(spec));
  ASSERT_EQ(row.app_count(0), 2u);
  for (size_t i = 0; i < row.app_count(0); ++i) {
    row.migrator(0, i);  // Generic core only; apps are plain incod::App.
    EXPECT_NE(row.rack(0).member_host_app_as<App>(i), nullptr);
    EXPECT_NE(row.rack(0).member_offload_app_as<App>(i), nullptr);
  }
  row.Start();
  ssim.RunUntil(Seconds(2));
  // The compressed 24 h trace kept the hosts busy enough that at least one
  // app was pushed into the network at some point.
  EXPECT_GT(row.rack_orchestrator(0)->total_shifts(), 0u);
  for (size_t i = 0; i < row.client_count(0); ++i) {
    EXPECT_GT(row.client(0, i).received(), 0u);
  }
  EXPECT_GT(row.trace_tasks().size(), 0u);
}

// ---- Acceptance: one rack, FPGA NIC + switch ASIC, shared ledger ----

TEST(MixedRackScenarioTest, TwoTargetKindsUnderOneOrchestrator) {
  Simulation sim(/*seed=*/5);
  MixedRackOptions options;
  options.power_budget_watts = 150.0;
  options.enable_paxos = false;  // KVS (FPGA NIC) + DNS (switch ASIC).
  options.orchestrator.min_dwell = Milliseconds(500);
  MixedRackScenario rack(sim, options);
  rack.PrefillKvs(20000, 64);

  // KVS: quiet, surge at 1 s, quiet again at 4 s.
  EtcWorkloadConfig etc_config;
  etc_config.kvs_service = kRackKvsServerNode;
  etc_config.key_population = 20000;
  EtcWorkload etc(etc_config);
  auto kvs_arrival = std::make_unique<PoissonArrival>(15000.0);
  PoissonArrival* kvs_knob = kvs_arrival.get();
  LoadClient& kvs_client =
      rack.AddKvsClient(LoadClientConfig{}, std::move(kvs_arrival), etc.MakeFactory());
  sim.Schedule(Seconds(1), [&] { kvs_knob->SetRate(400000.0); });
  sim.Schedule(Seconds(4), [&] { kvs_knob->SetRate(5000.0); });

  // DNS: steady 250 kqps — the ToR program wins immediately (§9.4).
  DnsWorkloadConfig dns_config;
  dns_config.dns_service = kRackDnsServerNode;
  LoadClient& dns_client = rack.AddDnsClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(250000.0),
      MakeDnsRequestFactory(dns_config));

  rack.orchestrator().Start();
  kvs_client.Start();
  dns_client.Start();
  sim.RunUntil(Seconds(3));

  // Mid-run: both apps offloaded, each on its own kind of target, and the
  // shared ledger holds exactly their two commitments within budget.
  const auto* kvs_option = rack.orchestrator().current_option(rack.kvs_app_index());
  const auto* dns_option = rack.orchestrator().current_option(rack.dns_app_index());
  ASSERT_NE(kvs_option, nullptr);
  ASSERT_NE(dns_option, nullptr);
  EXPECT_EQ(kvs_option->target, &rack.kvs_fpga());
  EXPECT_EQ(dns_option->target, &rack.dns_target());
  EXPECT_EQ(rack.orchestrator().ledger().commitments().size(), 2u);
  double sum = 0;
  for (const auto& [key, watts] : rack.orchestrator().ledger().commitments()) {
    EXPECT_TRUE(key == "kvs" || key == "dns") << key;
    EXPECT_GT(watts, 0.0);
    sum += watts;
  }
  EXPECT_DOUBLE_EQ(rack.orchestrator().ledger().committed_watts(), sum);
  EXPECT_LE(sum, options.power_budget_watts);

  // Both data paths really served in the network.
  EXPECT_GT(rack.kvs_fpga().processed_in_hardware(), 0u);
  EXPECT_GT(rack.dns_program().answered(), 0u);
  EXPECT_TRUE(rack.tor().LoadedPrograms().size() == 1u);

  // Night: the KVS comes home and releases its budget; DNS stays in the ToR
  // (its marginal watts keep beating the NSD server at any rate).
  sim.RunUntil(Seconds(7));
  EXPECT_EQ(rack.orchestrator().current_option(rack.kvs_app_index()), nullptr);
  EXPECT_NE(rack.orchestrator().current_option(rack.dns_app_index()), nullptr);
  EXPECT_EQ(rack.orchestrator().ledger().commitments().size(), 1u);
  EXPECT_EQ(rack.orchestrator().ledger().commitments().count("dns"), 1u);

  // Per-target shift counts: one shift onto each target kind.
  EXPECT_EQ(rack.orchestrator().ShiftsToTarget(rack.kvs_fpga()), 1u);
  EXPECT_EQ(rack.orchestrator().ShiftsToTarget(rack.dns_target()), 1u);
  EXPECT_EQ(rack.orchestrator().total_shifts(), 3u);  // kvs up+down, dns up.

  // Migrator transition logs agree with the orchestrator's accounting.
  EXPECT_EQ(rack.kvs_migrator().transitions().size(), 2u);
  EXPECT_EQ(rack.dns_migrator().transitions().size(), 1u);

  // Sanity: clients were actually served throughout.
  EXPECT_GT(kvs_client.received(), 0u);
  EXPECT_GT(dns_client.received(), 0u);
  EXPECT_LT(kvs_client.LossFraction(), 0.05);

  // The rack timeseries recorded the whole run.
  EXPECT_GT(rack.orchestrator().committed_watts_series().size(), 10u);
  EXPECT_GT(rack.orchestrator().committed_watts_series().MaxValue(), 0.0);
}

TEST(MixedRackScenarioTest, PaxosLeaderRegistersThirdApp) {
  Simulation sim(/*seed=*/6);
  MixedRackOptions options;
  options.enable_paxos = true;
  options.paxos_client.requests_per_second = 20000;
  MixedRackScenario rack(sim, options);
  EXPECT_EQ(rack.orchestrator().app_count(), 3u);
  ASSERT_NE(rack.paxos_migrator(), nullptr);
  // Drive a little consensus traffic end to end (software leader serves).
  rack.paxos_client()->Start();
  sim.RunUntil(Milliseconds(500));
  EXPECT_GT(rack.paxos_client()->completed(), 0u);
  // The same migrator interface shifts the leader into the P4xos NIC.
  rack.paxos_migrator()->ShiftToNetwork();
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(rack.paxos_migrator()->placement(), Placement::kNetwork);
  EXPECT_TRUE(rack.paxos_fpga()->app_active());
  EXPECT_GT(rack.paxos_fpga()->processed_in_hardware(), 0u);
}

// Heartbeats to the mixed rack's FPGAs ride their member links, as in a row
// rack: a flapped kvs-10ge makes LaKe unreachable, not dead.
TEST(MixedRackScenarioTest, LinkFlapIsSuppressedNotAFailure) {
  Simulation sim(/*seed=*/7);
  MixedRackOptions options;
  options.enable_paxos = false;
  options.orchestrator.heartbeat_period = Milliseconds(2);
  options.orchestrator.failure_threshold = 2;
  options.faults.events = {
      {FaultKind::kLinkDown, Milliseconds(20), "kvs-10ge"},
      {FaultKind::kLinkUp, Milliseconds(40), "kvs-10ge"},
  };
  MixedRackScenario rack(sim, options);
  rack.orchestrator().Start();
  rack.orchestrator().ForcePlacement(rack.kvs_app_index(), 0);  // LaKe.
  sim.RunUntil(Milliseconds(60));

  uint64_t flaps = 0;
  uint64_t failures = 0;
  for (const RackDecisionRecord& record : rack.orchestrator().decision_log()) {
    flaps += record.kind == RackDecisionRecord::Kind::kFlapSuppressed ? 1 : 0;
    failures += record.kind == RackDecisionRecord::Kind::kFailure ? 1 : 0;
  }
  EXPECT_EQ(flaps, 1u);
  EXPECT_EQ(failures, 0u);
  ASSERT_NE(rack.orchestrator().current_option(rack.kvs_app_index()), nullptr);
  EXPECT_EQ(rack.orchestrator().current_option(rack.kvs_app_index())->target,
            &rack.kvs_fpga());
}

}  // namespace
}  // namespace incod
