// Cross-cutting property and robustness (fuzz) tests: conservation laws,
// monotonicity invariants, and never-crash guarantees under random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/incod.h"

namespace incod {
namespace {

// ---- Link conservation: sent == delivered + dropped + in-queue ----

class LinkConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinkConservationTest, PacketsAreConserved) {
  Simulation sim(GetParam());
  Rng rng = sim.rng().Fork();
  struct Collector : PacketSink {
    void Receive(Packet) override { ++count; }
    std::string SinkName() const override { return "sink"; }
    uint64_t count = 0;
  } a, b;
  Link::Config config;
  config.gigabits_per_second = 0.1;  // Slow: guarantees queueing and drops.
  config.queue_capacity_packets = 16;
  Link link(sim, config);
  link.Connect(&a, &b);
  uint64_t sent_to_b = 0;
  uint64_t sent_to_a = 0;
  for (int i = 0; i < 2000; ++i) {
    Packet pkt;
    pkt.size_bytes = static_cast<uint32_t>(rng.UniformInt(64, 1500));
    sim.Schedule(rng.UniformInt(0, Milliseconds(5)), [&, pkt] {
      if (rng.Bernoulli(0.5)) {
        link.Send(&a, pkt);
        ++sent_to_b;
      } else {
        link.Send(&b, pkt);
        ++sent_to_a;
      }
    });
  }
  sim.Run();
  EXPECT_EQ(sent_to_b, b.count + link.dropped(&b));
  EXPECT_EQ(sent_to_a, a.count + link.dropped(&a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkConservationTest, ::testing::Values(1u, 2u, 3u));

// ---- Switch conservation under random rules and traffic ----

TEST(SwitchFuzzTest, RandomRulesAndTrafficConserve) {
  Simulation sim(9);
  Rng rng = sim.rng().Fork();
  Topology topo(sim);
  L2Switch sw(sim, "fuzz");
  struct Collector : PacketSink {
    void Receive(Packet) override { ++count; }
    std::string SinkName() const override { return "sink"; }
    uint64_t count = 0;
  } sinks[4];
  Link* links[4];
  for (int i = 0; i < 4; ++i) {
    links[i] = topo.ConnectToSwitch(&sw, &sinks[i], static_cast<NodeId>(i + 1));
  }
  for (int i = 0; i < 50; ++i) {
    L2Switch::ForwardingRule rule;
    rule.proto = static_cast<AppProto>(rng.UniformInt(0, 4));
    if (rng.Bernoulli(0.5)) {
      rule.match_dst = static_cast<NodeId>(rng.UniformInt(1, 8));
    }
    rule.out_port = static_cast<int>(rng.UniformInt(0, 3));
    rule.priority = static_cast<int>(rng.UniformInt(0, 5));
    if (rng.Bernoulli(0.3)) {
      rule.rewrite_dst = static_cast<NodeId>(rng.UniformInt(1, 4));
    }
    sw.InstallRule(rule);
  }
  const uint64_t offered = 5000;
  for (uint64_t i = 0; i < offered; ++i) {
    Packet pkt;
    pkt.src = 100;
    pkt.dst = static_cast<NodeId>(rng.UniformInt(1, 8));  // Some unroutable.
    pkt.proto = static_cast<AppProto>(rng.UniformInt(0, 4));
    sw.Receive(pkt);
  }
  sim.Run();
  uint64_t delivered = 0;
  uint64_t link_drops = 0;
  for (int i = 0; i < 4; ++i) {
    delivered += sinks[i].count;
    link_drops += links[i]->dropped(&sinks[i]);
  }
  EXPECT_EQ(sw.forwarded() + sw.dropped_no_route(), offered);
  EXPECT_EQ(delivered + link_drops, sw.forwarded());
}

// ---- DNS decoder never crashes on arbitrary bytes ----

class DnsFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DnsFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes(static_cast<size_t>(rng.UniformInt(0, 120)));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    // Must not crash/hang; decode may or may not succeed.
    const auto decoded = DecodeDnsMessage(bytes);
    if (decoded.has_value()) {
      // Whatever decoded must re-encode without throwing, unless it holds
      // invalid names (the decoder is by design more permissive about
      // label characters than the encoder is about structure).
      bool valid = true;
      for (const auto& q : decoded->questions) {
        valid = valid && IsValidDnsName(q.name);
      }
      for (const auto& a : decoded->answers) {
        valid = valid && IsValidDnsName(a.name);
      }
      if (valid) {
        EXPECT_NO_THROW(EncodeDnsMessage(*decoded));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsFuzzTest, ::testing::Values(11u, 22u, 33u));

// ---- Mutated valid messages never crash the decoder ----

TEST(DnsFuzzTest, BitFlippedMessagesNeverCrash) {
  Rng rng(44);
  DnsMessage query;
  query.id = 7;
  query.questions.push_back(DnsQuestion{"www.fuzz.example", kDnsTypeA, kDnsClassIn});
  const auto wire = EncodeDnsMessage(query);
  for (int iter = 0; iter < 5000; ++iter) {
    auto mutated = wire;
    const int flips = static_cast<int>(rng.UniformInt(1, 4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    }
    (void)DecodeDnsMessage(mutated);  // Must not crash.
  }
}

// ---- Histogram percentiles vs an exact reference ----

class HistogramReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramReferenceTest, QuantilesTrackExactValues) {
  Rng rng(GetParam());
  Histogram histogram;
  std::vector<uint64_t> exact;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform values spanning 1ns .. ~1s, like latencies.
    const double log_value = rng.UniformDouble(0, 9);
    const uint64_t value = static_cast<uint64_t>(std::pow(10.0, log_value)) + 1;
    histogram.Record(value);
    exact.push_back(value);
  }
  std::sort(exact.begin(), exact.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const uint64_t ref = exact[static_cast<size_t>(q * (exact.size() - 1))];
    const uint64_t est = histogram.ValueAtQuantile(q);
    const double rel = std::abs(static_cast<double>(est) - static_cast<double>(ref)) /
                       static_cast<double>(ref);
    EXPECT_LT(rel, 0.05) << "q=" << q << " ref=" << ref << " est=" << est;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramReferenceTest, ::testing::Values(5u, 6u, 7u));

// ---- Paxos acceptor invariants under random message streams ----

TEST(AcceptorInvariantTest, RoundsAndSequenceAreMonotone) {
  Rng rng(77);
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;
  AcceptorState acceptor(group, 0);
  uint32_t last_voted_before = 0;
  for (int i = 0; i < 5000; ++i) {
    PaxosMessage msg;
    msg.type = rng.Bernoulli(0.5) ? PaxosMsgType::kPhase1a : PaxosMsgType::kPhase2a;
    msg.instance = static_cast<uint32_t>(rng.UniformInt(1, 50));
    msg.round = static_cast<uint16_t>(rng.UniformInt(1, 10));
    msg.value = static_cast<PaxosValue>(rng.UniformInt(1, 1000));
    const auto out = acceptor.HandleMessage(msg);
    // last_voted_instance is monotone non-decreasing.
    EXPECT_GE(acceptor.last_voted_instance(), last_voted_before);
    last_voted_before = acceptor.last_voted_instance();
    // Any phase-2b output must carry the message's round and value.
    for (const auto& o : out) {
      if (o.msg.type == PaxosMsgType::kPhase2b) {
        EXPECT_EQ(o.msg.round, msg.round);
        EXPECT_EQ(o.msg.value, msg.value);
      }
    }
  }
}

TEST(LearnerInvariantTest, DeliveredCountNeverExceedsInstances) {
  Rng rng(88);
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;
  LearnerState learner(group);
  for (int i = 0; i < 10000; ++i) {
    PaxosMessage vote;
    vote.type = PaxosMsgType::kPhase2b;
    vote.instance = static_cast<uint32_t>(rng.UniformInt(1, 30));
    vote.round = static_cast<uint16_t>(rng.UniformInt(1, 4));
    vote.value = static_cast<PaxosValue>(rng.UniformInt(1, 5));
    vote.sender_id = static_cast<uint32_t>(rng.UniformInt(0, 2));
    vote.client = 100;
    learner.HandleMessage(vote, 0);
  }
  // At most one delivery per instance.
  EXPECT_LE(learner.delivered_count(), 30u);
  EXPECT_LE(learner.highest_contiguous(), learner.highest_seen());
}

// ---- Energy model: tipping point is monotone in hardware base power ----

TEST(TippingMonotonicityTest, CheaperHardwareTipsEarlier) {
  auto software = MakeServerRatePower(I7MemcachedCurve(), Microseconds(4), 4);
  auto with_nic = [&](double r) { return software(r) + 4.0; };
  double previous = 0;
  for (double board_watts : {10.0, 16.0, 22.0, 28.0}) {
    const auto advice = AdvisePlacement(
        with_nic, MakeFpgaRatePower(35.0, board_watts, 1.0, 13e6), 2e6);
    ASSERT_TRUE(advice.tipping_rate_pps.has_value()) << board_watts;
    EXPECT_GE(*advice.tipping_rate_pps, previous);
    previous = *advice.tipping_rate_pps;
  }
}

// ---- Simulation determinism across identical runs ----

TEST(DeterminismTest, IdenticalSeedsIdenticalResults) {
  auto run = [] {
    Simulation sim(123);
    KvsTestbedOptions options;
    options.mode = KvsMode::kLake;
    KvsTestbed testbed(sim, options);
    testbed.Prefill(500, 64);
    auto& client = testbed.AddClient(
        LoadClientConfig{}, std::make_unique<PoissonArrival>(150000.0),
        [](NodeId src, uint64_t id, SimTime now, Rng& rng) {
          const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 499));
          return MakeKvRequestPacket(src, kTestbedServerNode,
                                     KvRequest{KvOp::kGet, key, 0}, id, now);
        });
    client.Start();
    sim.RunUntil(Milliseconds(100));
    return std::make_tuple(client.received(), client.latency().P99(),
                           testbed.meter().EnergyJoules(), sim.events_executed());
  };
  EXPECT_EQ(run(), run());
}

// ---- 4-substrate rack under randomized shift schedules ----
//
// Property: whatever shift schedule the orchestrator ends up executing on a
// host/FPGA/SmartNIC/switch rack, (a) the shared power ledger never exceeds
// the PDU budget at any sample point, and (b) the aggregate counters
// (total_shifts, warm_shifts, reprogram_deferrals, per-target shifts)
// reconcile exactly with the decision log — the audit trail cannot drift
// from the numbers the tests and benches gate on.

class RackShiftScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RackShiftScheduleTest, LedgerStaysWithinBudgetAndCountersReconcile) {
  Simulation sim(GetParam());
  Rng rng = sim.rng().Fork();
  constexpr double kBudgetWatts = 40.0;

  // The three offload substrates, alive but untrafficked: decisions are
  // driven by randomized measured rates, not packets.
  FpgaNicConfig fpga_config;
  fpga_config.name = "prop-netfpga";
  FpgaNic fpga(sim, fpga_config);
  LakeCache fpga_lake;
  fpga.InstallApp(&fpga_lake);

  SmartNicDeviceConfig smartnic_config;
  smartnic_config.name = "prop-smartnic";
  SmartNic smartnic(sim, SmartNicPresetByName("accelnet-fpga"), smartnic_config);
  AppFactoryEnv env;
  auto smartnic_app =
      AppRegistry::Global().Create("kvs", PlacementKind::kSmartNic, env);
  smartnic.InstallApp(smartnic_app.get());

  SwitchAsic asic(sim, SwitchAsicConfig{});
  KvSwitchCacheConfig cache_config;
  cache_config.kvs_service = 1;
  KvSwitchCache switch_program(cache_config);
  SwitchOffloadTarget switch_target(asic, switch_program, AppProto::kKv);

  // One migrator per (app, target); the FPGA options park by reprogramming
  // so mid-reconfiguration decision windows produce deferrals.
  RackOrchestratorConfig config;
  config.power_budget_watts = kBudgetWatts;
  config.check_period = Milliseconds(20);
  config.min_dwell = Milliseconds(10);
  RackOrchestrator orchestrator(sim, config);

  constexpr size_t kApps = 3;
  std::vector<double> rates(kApps, 0.0);
  std::vector<std::unique_ptr<StateTransferMigrator>> migrators;
  for (size_t i = 0; i < kApps; ++i) {
    RackAppSpec spec;
    spec.name = "app" + std::to_string(i);
    spec.warm_migration = rng.Bernoulli(0.5);
    spec.software_watts = [](double r) { return 35.0 + r / 5000.0; };
    spec.measured_rate_pps = [&rates, i] { return rates[i]; };
    auto add_option = [&](OffloadTarget& target, RatePowerFn watts,
                          ParkPolicy policy) {
      migrators.push_back(std::make_unique<StateTransferMigrator>(
          sim, target, StateTransferMigrator::Options::FromPolicy(policy)));
      spec.options.push_back(
          RackPlacementOption{&target, migrators.back().get(), std::move(watts)});
    };
    // App 0's firmware fits a leaner FPGA build, making the reprogram-parked
    // board its cheapest option — the reconfiguration halts that produce
    // deferral records are part of every schedule.
    add_option(fpga, MakeFpgaRatePower(35.0, i == 0 ? 12.0 : 24.0, 1.0, 13e6),
               ParkPolicy::kReprogram);
    add_option(smartnic,
               MakeSmartNicRatePower(35.0, smartnic.preset(),
                                     smartnic_app->OffloadProfile()
                                         .smartnic.MppsFractionFor(
                                             smartnic.preset().arch)),
               ParkPolicy::kGatedPark);
    auto switch_marginal = MakeSwitchMarginalPower(0.02, 350.0, 2.5e9);
    add_option(switch_target,
               [switch_marginal](double r) { return 35.0 + 18.0 + switch_marginal(r); },
               ParkPolicy::kKeepWarm);
    orchestrator.AddApp(std::move(spec));
  }

  // Randomized shift schedule: every app's rate jumps at random times.
  for (size_t i = 0; i < kApps; ++i) {
    SimTime at = 0;
    while (at < Seconds(3)) {
      at += rng.UniformInt(Milliseconds(30), Milliseconds(150));
      const double rate = rng.Bernoulli(0.3)
                              ? 0.0
                              : static_cast<double>(rng.UniformInt(0, 600000));
      sim.Schedule(at, [&rates, i, rate] { rates[i] = rate; });
    }
  }

  // Budget invariant, checked densely along the run.
  size_t samples = 0;
  SchedulePeriodic(sim, Milliseconds(5), Milliseconds(5), [&] {
    EXPECT_LE(orchestrator.ledger().committed_watts(), kBudgetWatts + 1e-9);
    ++samples;
    return sim.Now() < Seconds(3);
  });

  orchestrator.Start();
  sim.RunUntil(Seconds(3) + Milliseconds(200));
  EXPECT_GT(samples, 500u);

  // Counter <-> decision-log reconciliation.
  uint64_t shifts = 0;
  uint64_t warm = 0;
  uint64_t deferrals = 0;
  std::map<std::string, uint64_t> shifts_by_target;
  for (const RackDecisionRecord& record : orchestrator.decision_log()) {
    switch (record.kind) {
      case RackDecisionRecord::Kind::kShift:
        ++shifts;
        ++shifts_by_target[record.target];
        if (record.warm) ++warm;
        break;
      case RackDecisionRecord::Kind::kShiftHome:
        ++shifts;
        if (record.warm) ++warm;
        break;
      case RackDecisionRecord::Kind::kDeferral:
        ++deferrals;
        break;
      default:
        break;  // No detector in this schedule: no failure/flap records.
    }
  }
  EXPECT_GT(orchestrator.total_shifts(), 0u);  // The schedule actually shifted.
  EXPECT_GT(orchestrator.reprogram_deferrals(), 0u);  // ... and deferred.
  EXPECT_EQ(orchestrator.total_shifts(), shifts);
  EXPECT_EQ(orchestrator.warm_shifts(), warm);
  EXPECT_EQ(orchestrator.reprogram_deferrals(), deferrals);
  for (const OffloadTarget* target :
       {static_cast<const OffloadTarget*>(&fpga),
        static_cast<const OffloadTarget*>(&smartnic),
        static_cast<const OffloadTarget*>(&switch_target)}) {
    EXPECT_EQ(orchestrator.ShiftsToTarget(*target),
              shifts_by_target[target->TargetName()])
        << target->TargetName();
  }
  // Ledger commitments only ever belong to currently offloaded apps.
  size_t offloaded = 0;
  for (size_t i = 0; i < orchestrator.app_count(); ++i) {
    if (orchestrator.current_option(i) != nullptr) {
      ++offloaded;
      EXPECT_EQ(orchestrator.ledger().commitments().count(orchestrator.app_name(i)),
                1u);
    }
  }
  EXPECT_EQ(orchestrator.ledger().commitments().size(), offloaded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RackShiftScheduleTest,
                         ::testing::Values(17u, 29u, 43u));

// ---- Mixed rack under randomized fault schedules ----
//
// Property: whatever deterministic fault plan MakeRandomFaultPlan draws —
// device deaths, link flaps, PSU brownout cap steps — (a) the shared power
// ledger never exceeds the *currently active* cap at any sample point
// (brownouts shrink it mid-run), and (b) the fault injector's counters
// reconcile exactly with its fault log, and the orchestrator's
// failure/recovery/shift counters reconcile exactly with the decision log.

class RackFaultScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RackFaultScheduleTest, LedgerRespectsCapsAndFaultCountersReconcile) {
  Simulation sim(GetParam());
  Rng rng = sim.rng().Fork();
  constexpr double kBudgetWatts = 40.0;

  MixedRackOptions options;
  options.power_budget_watts = kBudgetWatts;
  options.kvs_switch_placement = true;  // A surviving landing spot.
  options.orchestrator.heartbeat_period = Milliseconds(2);
  options.orchestrator.check_period = Milliseconds(20);
  options.orchestrator.min_dwell = Milliseconds(10);
  options.kvs_checkpoint_period = Milliseconds(25);
  options.paxos_checkpoint_period = Milliseconds(25);
  MixedRackScenario rack(sim, options);
  rack.PrefillKvs(1000, 64);

  LoadClient& kvs = rack.AddKvsClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(150000.0),
      [](NodeId src, uint64_t id, SimTime now, Rng& req_rng) {
        const uint64_t key = static_cast<uint64_t>(req_rng.UniformInt(0, 999));
        return MakeKvRequestPacket(src, kRackKvsServerNode,
                                   KvRequest{KvOp::kGet, key, 0}, id, now);
      });

  // The plan is drawn against whatever the testbed registered; brownout caps
  // may dip below what the apps would like to commit.
  RandomFaultPlanConfig plan_config;
  plan_config.horizon = Seconds(1);
  plan_config.death_probability = 0.4;
  plan_config.max_flaps_per_link = 2;
  plan_config.max_brownouts = 2;
  plan_config.min_cap_watts = 5.0;
  plan_config.max_cap_watts = kBudgetWatts;
  const FaultPlanSpec plan = MakeRandomFaultPlan(
      rng, rack.faults().TargetNames(), rack.faults().LinkNames(), plan_config);
  rack.faults().Arm(plan);

  // Budget invariant under the active cap, checked densely along the run.
  size_t samples = 0;
  SchedulePeriodic(sim, Milliseconds(5), Milliseconds(5), [&] {
    const auto& ledger = rack.orchestrator().ledger();
    if (!ledger.unlimited()) {
      EXPECT_LE(ledger.committed_watts(), ledger.budget_watts() + 1e-9)
          << "at " << sim.Now();
    }
    ++samples;
    return sim.Now() < Seconds(1);
  });

  rack.orchestrator().Start();
  rack.paxos_client()->Start();
  kvs.Start();
  sim.RunUntil(Seconds(1) + Milliseconds(100));
  EXPECT_GT(samples, 150u);

  // Fault counters <-> fault log.
  const FaultInjector& faults = rack.faults();
  std::map<FaultKind, uint64_t> by_kind;
  for (const FaultRecord& record : faults.fault_log()) {
    ++by_kind[record.kind];
  }
  EXPECT_EQ(faults.fault_log().size(), plan.events.size());
  EXPECT_EQ(faults.device_deaths(), by_kind[FaultKind::kDeviceDeath]);
  EXPECT_EQ(faults.link_down_events(), by_kind[FaultKind::kLinkDown]);
  EXPECT_EQ(faults.link_up_events(), by_kind[FaultKind::kLinkUp]);
  EXPECT_EQ(faults.brownouts(), by_kind[FaultKind::kPsuBrownout]);

  // Orchestrator counters <-> decision log.
  uint64_t shifts = 0;
  uint64_t failures = 0;
  uint64_t recoveries = 0;
  uint64_t flaps_suppressed = 0;
  for (const RackDecisionRecord& record : rack.orchestrator().decision_log()) {
    switch (record.kind) {
      case RackDecisionRecord::Kind::kShift:
      case RackDecisionRecord::Kind::kShiftHome:
        ++shifts;
        break;
      case RackDecisionRecord::Kind::kFailure:
        ++failures;
        break;
      case RackDecisionRecord::Kind::kRecovery:
        ++recoveries;
        break;
      case RackDecisionRecord::Kind::kFlapSuppressed:
        ++flaps_suppressed;
        break;
      case RackDecisionRecord::Kind::kDeferral:
        break;
    }
  }
  EXPECT_EQ(rack.orchestrator().total_shifts(), shifts);
  EXPECT_EQ(rack.orchestrator().failures_detected(), failures);
  EXPECT_EQ(rack.orchestrator().recoveries(), recoveries);
  EXPECT_EQ(rack.orchestrator().flap_suppressions(), flaps_suppressed);
  // A recovery implies a detected failure; recovery can't outrun detection.
  EXPECT_LE(recoveries, failures * rack.orchestrator().app_count());

  // Ledger commitments only ever belong to currently offloaded apps.
  size_t offloaded = 0;
  for (size_t i = 0; i < rack.orchestrator().app_count(); ++i) {
    if (rack.orchestrator().current_option(i) != nullptr) {
      ++offloaded;
    }
  }
  EXPECT_EQ(rack.orchestrator().ledger().commitments().size(), offloaded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RackFaultScheduleTest,
                         ::testing::Values(17u, 29u, 43u));

// ---- Umbrella header exposes the full API (compile-time property) ----

TEST(UmbrellaHeaderTest, CoreTypesAreVisible) {
  Simulation sim(1);
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_STREQ(AppProtoName(AppProto::kKv), "kv");
  EXPECT_STREQ(PlacementName(Placement::kHost), "host");
  EXPECT_STREQ(SmartNicArchName(SmartNicArch::kFpga), "fpga");
}

}  // namespace
}  // namespace incod
