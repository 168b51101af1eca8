// Differential tests: the calendar-queue engine must be observationally
// identical to the reference heap engine — same event order, same counters,
// same end-to-end simulation results on a real testbed.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/kvs/kv_protocol.h"
#include "src/power/cpu_power.h"
#include "src/row/row_scenario.h"
#include "src/row/row_spec.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/multi_rack.h"
#include "src/scenarios/rack_scenario.h"
#include "src/sim/sharded.h"
#include "src/sim/simulation.h"
#include "src/workload/arrival.h"
#include "src/workload/client.h"
#include "src/workload/dns_workload.h"

namespace incod {
namespace {

using Trace = std::vector<std::pair<SimTime, uint64_t>>;

// Deterministic self-expanding workload: every executed event records
// (Now, tag) and, driven by its own LCG, schedules 0-2 children at near /
// same-tick / far-future delays and cancels pseudo-randomly chosen earlier
// ids. Identical logic on both engines => traces must match exactly.
struct DiffDriver {
  Simulation* sim;
  Trace* trace;
  std::vector<uint64_t>* ids;
  uint64_t state;
  uint64_t tag;
  int depth;

  void operator()() {
    trace->push_back({sim->Now(), tag});
    if (depth >= 6) {
      return;
    }
    uint64_t s = state;
    const auto next = [&s] {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return s >> 33;
    };
    const uint64_t children = next() % 3;
    for (uint64_t c = 0; c < children; ++c) {
      const uint64_t r = next();
      SimDuration gap = static_cast<SimDuration>(r % 2000);
      if (r % 7 == 0) {
        gap = 0;  // Same-tick FIFO path.
      } else if (r % 11 == 0) {
        gap = Milliseconds(static_cast<int64_t>(1 + r % 20));  // Far list.
      }
      ids->push_back(sim->Schedule(
          gap, DiffDriver{sim, trace, ids, next(), tag * 31 + c + 1, depth + 1}));
    }
    if (next() % 4 == 0 && !ids->empty()) {
      sim->Cancel((*ids)[next() % ids->size()]);
    }
  }
};

Trace RunDiffWorkload(Simulation::EngineKind kind) {
  Simulation sim(1, kind);
  Trace trace;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(sim.Schedule(i % 5, DiffDriver{&sim, &trace, &ids,
                                                 0x9e3779b97f4a7c15ULL * (i + 1),
                                                 static_cast<uint64_t>(i), 0}));
  }
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  return trace;
}

TEST(EngineDiffTest, RandomChurnExecutesInIdenticalOrder) {
  const Trace calendar = RunDiffWorkload(Simulation::EngineKind::kCalendar);
  const Trace heap = RunDiffWorkload(Simulation::EngineKind::kHeap);
  ASSERT_GT(calendar.size(), 100u);  // The workload actually expanded.
  ASSERT_EQ(calendar.size(), heap.size());
  for (size_t i = 0; i < calendar.size(); ++i) {
    ASSERT_EQ(calendar[i], heap[i]) << "diverged at event " << i;
  }
}

struct KvsRunResult {
  uint64_t events_executed;
  SimTime now;
  uint64_t sent;
  uint64_t received;
  uint64_t lost;
  uint64_t p50;
  uint64_t p99;
  double watts;
};

KvsRunResult RunSeededKvsTestbed(Simulation::EngineKind kind) {
  Simulation sim(7, kind);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  options.lake.l1_entries = 256;
  KvsTestbed testbed(sim, options);
  const uint64_t keys = 500;
  testbed.Prefill(keys, 0);
  auto& client = testbed.AddClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(400000.0),
      [service = testbed.ServiceNode(), keys](NodeId src, uint64_t id, SimTime now,
                                              Rng& rng) {
        const uint64_t key =
            static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(keys) - 1));
        const KvOp op = rng.Bernoulli(0.1) ? KvOp::kSet : KvOp::kGet;
        return MakeKvRequestPacket(src, service, KvRequest{op, key, 64}, id, now);
      });
  client.Start();
  sim.RunUntil(Milliseconds(50));
  return KvsRunResult{
      sim.events_executed(),
      sim.Now(),
      client.sent(),
      client.received(),
      client.lost(),
      client.latency().P50(),
      client.latency().P99(),
      testbed.meter().MeanWatts(0, sim.Now()),
  };
}

TEST(EngineDiffTest, SeededKvsTestbedBitIdenticalAcrossEngines) {
  const KvsRunResult calendar = RunSeededKvsTestbed(Simulation::EngineKind::kCalendar);
  const KvsRunResult heap = RunSeededKvsTestbed(Simulation::EngineKind::kHeap);
  EXPECT_GT(calendar.events_executed, 100000u);  // Non-trivial run.
  EXPECT_EQ(calendar.events_executed, heap.events_executed);
  EXPECT_EQ(calendar.now, heap.now);
  EXPECT_EQ(calendar.sent, heap.sent);
  EXPECT_EQ(calendar.received, heap.received);
  EXPECT_EQ(calendar.lost, heap.lost);
  EXPECT_EQ(calendar.p50, heap.p50);
  EXPECT_EQ(calendar.p99, heap.p99);
  EXPECT_DOUBLE_EQ(calendar.watts, heap.watts);
}

// --- Sharded engine: kParallel must be event-identical to kSingleQueue ---

using Mode = ShardedSimulation::Mode;

// Every externally observable number a scenario run produces: engine event
// count, per-client traffic counters and latency percentiles, mean wall
// watts. Event-identical runs must agree on all of them exactly.
struct ShardedScenarioResult {
  uint64_t events = 0;
  std::vector<uint64_t> counters;
  double watts = 0;
};

void ExpectIdentical(const ShardedScenarioResult& want,
                     const ShardedScenarioResult& got, uint64_t seed) {
  EXPECT_EQ(want.events, got.events) << "seed " << seed;
  ASSERT_EQ(want.counters.size(), got.counters.size());
  for (size_t i = 0; i < want.counters.size(); ++i) {
    EXPECT_EQ(want.counters[i], got.counters[i]) << "counter " << i << " seed " << seed;
  }
  EXPECT_DOUBLE_EQ(want.watts, got.watts) << "seed " << seed;
}

void AppendClient(ShardedScenarioResult* result, const LoadClient& client) {
  result->counters.push_back(client.sent());
  result->counters.push_back(client.received());
  result->counters.push_back(client.lost());
  result->counters.push_back(client.latency().P50());
  result->counters.push_back(client.latency().P99());
}

ShardedSimulation::Options ShardOptions(Mode mode, int shards, int threads,
                                        uint64_t seed) {
  ShardedSimulation::Options options;
  options.num_shards = shards;
  options.num_threads = threads;
  options.mode = mode;
  options.seed = seed;
  return options;
}

ShardedScenarioResult RunShardedMixedRack(Mode mode, int threads, uint64_t seed) {
  ShardedSimulation ssim(ShardOptions(mode, 4, threads, seed));
  MixedRackScenario rack(ssim, MixedRackShardPlan{});
  rack.PrefillKvs(2000, 64);
  LoadClient& kvs = rack.AddKvsClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(300000.0),
      [](NodeId src, uint64_t id, SimTime now, Rng& rng) {
        const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 1999));
        return MakeKvRequestPacket(src, kRackKvsServerNode,
                                   KvRequest{KvOp::kGet, key, 0}, id, now);
      });
  DnsWorkloadConfig dns_config;
  dns_config.dns_service = kRackDnsServerNode;
  LoadClient& dns = rack.AddDnsClient(LoadClientConfig{},
                                      std::make_unique<PoissonArrival>(200000.0),
                                      MakeDnsRequestFactory(dns_config));
  rack.orchestrator().Start();
  rack.paxos_client()->Start();
  kvs.Start();
  dns.Start();
  ssim.RunUntil(Milliseconds(15));

  ShardedScenarioResult result;
  result.events = ssim.events_executed();
  AppendClient(&result, kvs);
  AppendClient(&result, dns);
  result.watts = rack.meter().MeanWatts(0, Milliseconds(15));
  return result;
}

TEST(EngineDiffTest, ShardedMixedRackIdenticalToSingleQueue) {
  for (const uint64_t seed : {7u, 11u, 13u}) {
    const ShardedScenarioResult reference =
        RunShardedMixedRack(Mode::kSingleQueue, 1, seed);
    EXPECT_GT(reference.events, 50000u);  // Non-trivial run.
    const ShardedScenarioResult parallel =
        RunShardedMixedRack(Mode::kParallel, 4, seed);
    ExpectIdentical(reference, parallel, seed);
  }
}

// The engine-identity contract extends to faulted runs: fault flips are
// ordinary scheduled events in the shard that owns the entity, so a scenario
// with a device death mid-offload (heartbeat detection, checkpointed warm
// recovery) plus a link flap must stay event-identical across modes.
ShardedScenarioResult RunShardedFaultedRack(Mode mode, int threads, uint64_t seed) {
  ShardedSimulation ssim(ShardOptions(mode, 4, threads, seed));
  MixedRackOptions options;
  options.orchestrator.heartbeat_period = Milliseconds(1);
  options.orchestrator.min_dwell = Seconds(1);  // Keep the forced placement.
  options.kvs_checkpoint_period = Milliseconds(2);
  options.faults.events.push_back(
      FaultEventSpec{FaultKind::kDeviceDeath, Milliseconds(5), "netfpga-lake", 0});
  options.faults.events.push_back(
      FaultEventSpec{FaultKind::kLinkDown, Milliseconds(4), "dns-10ge", 0});
  options.faults.events.push_back(
      FaultEventSpec{FaultKind::kLinkUp, Milliseconds(8), "dns-10ge", 0});
  MixedRackScenario rack(ssim, MixedRackShardPlan{}, options);
  rack.PrefillKvs(2000, 64);
  LoadClient& kvs = rack.AddKvsClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(300000.0),
      [](NodeId src, uint64_t id, SimTime now, Rng& rng) {
        const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 1999));
        return MakeKvRequestPacket(src, kRackKvsServerNode,
                                   KvRequest{KvOp::kGet, key, 0}, id, now);
      });
  DnsWorkloadConfig dns_config;
  dns_config.dns_service = kRackDnsServerNode;
  LoadClient& dns = rack.AddDnsClient(LoadClientConfig{},
                                      std::make_unique<PoissonArrival>(200000.0),
                                      MakeDnsRequestFactory(dns_config));
  rack.orchestrator().Start();
  // On the FPGA when the death fires, so the recovery path runs too.
  rack.orchestrator().ForcePlacement(rack.kvs_app_index(), 0);
  rack.paxos_client()->Start();
  kvs.Start();
  dns.Start();
  ssim.RunUntil(Milliseconds(15));

  ShardedScenarioResult result;
  result.events = ssim.events_executed();
  AppendClient(&result, kvs);
  AppendClient(&result, dns);
  result.counters.push_back(rack.faults().fault_log().size());
  result.counters.push_back(rack.faults().device_deaths());
  result.counters.push_back(rack.faults().link_down_events());
  result.counters.push_back(rack.orchestrator().failures_detected());
  result.counters.push_back(rack.orchestrator().recoveries());
  result.counters.push_back(rack.orchestrator().checkpoints_taken());
  result.watts = rack.meter().MeanWatts(0, Milliseconds(15));
  return result;
}

TEST(EngineDiffTest, ShardedFaultedRackIdenticalToSingleQueue) {
  for (const uint64_t seed : {7u, 11u, 13u}) {
    const ShardedScenarioResult reference =
        RunShardedFaultedRack(Mode::kSingleQueue, 1, seed);
    EXPECT_GT(reference.events, 50000u);
    // The plan actually fired and the orchestrator actually recovered.
    EXPECT_EQ(reference.counters[10], 3u) << "fault log";
    EXPECT_GE(reference.counters[13], 1u) << "failures detected";
    EXPECT_GE(reference.counters[14], 1u) << "recoveries";
    const ShardedScenarioResult parallel =
        RunShardedFaultedRack(Mode::kParallel, 4, seed);
    ExpectIdentical(reference, parallel, seed);
  }
}

// The mechanistic host-NIC datapath under the identity contract: the same
// faulted rack with HostNicSpec on, so RSS ring placement, coalescing
// timers losing to packet-count triggers, interrupt charging on the kernel
// hosts, and tx doorbell flushes all run as ordinary scheduled events. The
// datapath counters join the signature — any engine-order divergence in the
// timer/trigger races would show up here.
ShardedScenarioResult RunShardedHostNicRack(Mode mode, int threads, uint64_t seed) {
  ShardedSimulation ssim(ShardOptions(mode, 4, threads, seed));
  MixedRackOptions options;
  options.hostnic.enabled = true;
  options.orchestrator.heartbeat_period = Milliseconds(1);
  options.orchestrator.min_dwell = Seconds(1);
  options.kvs_checkpoint_period = Milliseconds(2);
  options.faults.events.push_back(
      FaultEventSpec{FaultKind::kDeviceDeath, Milliseconds(5), "netfpga-lake", 0});
  options.faults.events.push_back(
      FaultEventSpec{FaultKind::kLinkDown, Milliseconds(4), "dns-10ge", 0});
  options.faults.events.push_back(
      FaultEventSpec{FaultKind::kLinkUp, Milliseconds(8), "dns-10ge", 0});
  MixedRackScenario rack(ssim, MixedRackShardPlan{}, options);
  rack.PrefillKvs(2000, 64);
  LoadClient& kvs = rack.AddKvsClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(300000.0),
      [](NodeId src, uint64_t id, SimTime now, Rng& rng) {
        const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 1999));
        return MakeKvRequestPacket(src, kRackKvsServerNode,
                                   KvRequest{KvOp::kGet, key, 0}, id, now);
      });
  DnsWorkloadConfig dns_config;
  dns_config.dns_service = kRackDnsServerNode;
  LoadClient& dns = rack.AddDnsClient(LoadClientConfig{},
                                      std::make_unique<PoissonArrival>(200000.0),
                                      MakeDnsRequestFactory(dns_config));
  rack.orchestrator().Start();
  rack.orchestrator().ForcePlacement(rack.kvs_app_index(), 0);
  rack.paxos_client()->Start();
  kvs.Start();
  dns.Start();
  ssim.RunUntil(Milliseconds(15));

  ShardedScenarioResult result;
  result.events = ssim.events_executed();
  AppendClient(&result, kvs);
  AppendClient(&result, dns);
  // Mechanistic datapath counters on the DNS member (the rack's
  // conventional-NIC host) plus the split drop accounting on both hosts.
  const ConventionalNic* dns_nic = rack.scenario().member("dns").nic;
  result.counters.push_back(dns_nic->interrupts_raised());
  result.counters.push_back(dns_nic->ring_drops());
  result.counters.push_back(dns_nic->doorbells_rung());
  for (const Server* server : {&rack.kvs_server(), &rack.dns_server()}) {
    result.counters.push_back(server->requests_received());
    result.counters.push_back(server->dropped_no_app());
    result.counters.push_back(server->dropped_overflow());
    result.counters.push_back(server->interrupts_serviced());
  }
  result.counters.push_back(rack.faults().fault_log().size());
  result.counters.push_back(rack.orchestrator().failures_detected());
  result.counters.push_back(rack.orchestrator().recoveries());
  result.watts = rack.meter().MeanWatts(0, Milliseconds(15));
  return result;
}

TEST(EngineDiffTest, ShardedHostNicRackIdenticalToSingleQueue) {
  for (const uint64_t seed : {7u, 11u, 13u}) {
    const ShardedScenarioResult reference =
        RunShardedHostNicRack(Mode::kSingleQueue, 1, seed);
    EXPECT_GT(reference.events, 50000u);
    // The datapath genuinely engaged: counters[10..12] are the DNS NIC's
    // interrupt / ring-drop / doorbell counters appended above.
    EXPECT_GT(reference.counters[10], 0u) << "no interrupts at seed " << seed;
    EXPECT_GT(reference.counters[12], 0u) << "no doorbells at seed " << seed;
    const ShardedScenarioResult parallel =
        RunShardedHostNicRack(Mode::kParallel, 4, seed);
    ExpectIdentical(reference, parallel, seed);
  }
}

// The §9.3 trace-driven rack as a one-rack row: KVS and DNS members with
// parked FPGA placements under the rack orchestrator, the row trace
// modulating host load. The clients live in the spine shard, so their ToR
// links are cross-shard boundaries.
ShardedScenarioResult RunShardedTraceRow(Mode mode, int threads, uint64_t seed) {
  ShardedSimulation ssim(ShardOptions(mode, 2, threads, seed));
  RowSpec spec;
  spec.trace.enabled = true;
  spec.trace.trace = {.num_tasks = 500, .num_nodes = 2};
  spec.trace.sim_horizon = Milliseconds(20);
  spec.trace.seed = seed;
  RowRackSpec& rack = spec.racks.emplace_back();
  rack.scenario.name = "trace-rack";
  rack.scenario.tor.present = true;
  rack.scenario.tor.asic = true;
  rack.scenario.tor.metered = true;
  rack.scenario.client_link.propagation_delay = Microseconds(2);
  rack.orchestrate = true;
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
    member.host.config.power_curve = I7SyntheticCurve();
    member.host.apps = {apps[i].first};
    member.target.kind = ScenarioTargetKind::kFpgaNic;
    member.target.name = member.name + "-netfpga";
    member.target.device_node = device;
    member.target.app = apps[i].first;
    member.target.initially_active = false;
    member.switch_routes = {host, device};
    RowClientSpec& client = rack.clients.emplace_back();
    client.client.node = 100 + static_cast<NodeId>(i);
    client.rate_per_second = 150000;
    client.workload.kind = apps[i].second;
    client.service = host;
    client.shard = 1;  // The spine shard.
    rack.apps.push_back(RowAppSpec{.member = i});
  }
  RowScenario row(ssim, std::move(spec));
  row.Start();
  ssim.RunUntil(Milliseconds(15));

  ShardedScenarioResult result;
  result.events = ssim.events_executed();
  for (size_t i = 0; i < row.client_count(0); ++i) {
    AppendClient(&result, row.client(0, i));
  }
  result.watts = row.rack(0).meter().MeanWatts(0, Milliseconds(15));
  return result;
}

TEST(EngineDiffTest, ShardedTraceRowIdenticalToSingleQueue) {
  for (const uint64_t seed : {7u, 11u, 13u}) {
    const ShardedScenarioResult reference =
        RunShardedTraceRow(Mode::kSingleQueue, 1, seed);
    EXPECT_GT(reference.events, 20000u);
    const ShardedScenarioResult parallel = RunShardedTraceRow(Mode::kParallel, 4, seed);
    ExpectIdentical(reference, parallel, seed);
  }
}

ShardedScenarioResult RunShardedMultiRack(Mode mode, int threads, uint64_t seed) {
  ShardedSimulation ssim(ShardOptions(mode, 3, threads, seed));
  MultiRackOptions options;
  options.num_racks = 2;
  options.kvs_rate_per_second = 200000;
  options.dns_rate_per_second = 100000;
  options.prefill = 1000;
  options.keyspace = 1000;
  MultiRackScenario fabric(ssim, options);
  fabric.Start();
  ssim.RunUntil(Milliseconds(15));

  ShardedScenarioResult result;
  result.events = ssim.events_executed();
  for (int r = 0; r < fabric.num_racks(); ++r) {
    AppendClient(&result, fabric.kvs_client(r));
    AppendClient(&result, fabric.dns_client(r));
    result.watts += fabric.rack(r).meter().MeanWatts(0, Milliseconds(15));
  }
  return result;
}

TEST(EngineDiffTest, ShardedMultiRackIdenticalToSingleQueue) {
  for (const uint64_t seed : {7u, 11u}) {
    const ShardedScenarioResult reference =
        RunShardedMultiRack(Mode::kSingleQueue, 1, seed);
    EXPECT_GT(reference.events, 50000u);
    const ShardedScenarioResult parallel =
        RunShardedMultiRack(Mode::kParallel, 4, seed);
    ExpectIdentical(reference, parallel, seed);
  }
}

// Backpressure under the identity contract: the mixed rack with PFC +
// DCQCN enabled and both the KVS and DNS hosts driven past capacity, so
// pause frames cross the client-shard boundary (PostCrossShard flips), ECN
// marks trigger CNPs, and the clients' rate machines throttle mid-run. All
// of that must stay event-identical between the single-queue reference and
// the parallel engine.
ShardedScenarioResult RunShardedFlowRack(Mode mode, int threads, uint64_t seed) {
  ShardedSimulation ssim(ShardOptions(mode, 4, threads, seed));
  MixedRackOptions options;
  options.flow.enabled = true;
  // Saturate decisively: injection caps above host capacity, host pause
  // watermarks low enough to engage early.
  options.flow.dcqcn_config.line_rate_pps = 2.0e6;
  options.flow.host.pause_high_watermark = 64;
  options.flow.host.pause_low_watermark = 16;
  MixedRackScenario rack(ssim, MixedRackShardPlan{}, options);
  rack.PrefillKvs(2000, 64);
  LoadClient& kvs = rack.AddKvsClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(2500000.0),
      [](NodeId src, uint64_t id, SimTime now, Rng& rng) {
        const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 1999));
        return MakeKvRequestPacket(src, kRackKvsServerNode,
                                   KvRequest{KvOp::kGet, key, 0}, id, now);
      });
  DnsWorkloadConfig dns_config;
  dns_config.dns_service = kRackDnsServerNode;
  LoadClient& dns = rack.AddDnsClient(LoadClientConfig{},
                                      std::make_unique<PoissonArrival>(1500000.0),
                                      MakeDnsRequestFactory(dns_config));
  rack.orchestrator().Start();
  rack.paxos_client()->Start();
  kvs.Start();
  dns.Start();
  ssim.RunUntil(Milliseconds(10));

  ShardedScenarioResult result;
  result.events = ssim.events_executed();
  AppendClient(&result, kvs);
  AppendClient(&result, dns);
  for (const LoadClient* client : {&kvs, &dns}) {
    result.counters.push_back(client->dcqcn()->cnps_received());
    result.counters.push_back(client->dcqcn()->paced_sent());
    result.counters.push_back(client->dcqcn()->pacer_dropped());
  }
  for (const Server* server : {&rack.kvs_server(), &rack.dns_server()}) {
    result.counters.push_back(server->pause_frames_sent());
    result.counters.push_back(server->cnps_sent());
    result.counters.push_back(server->requests_dropped());
  }
  result.watts = rack.meter().MeanWatts(0, Milliseconds(10));
  return result;
}

TEST(EngineDiffTest, ShardedSaturatedFlowRackIdenticalToSingleQueue) {
  for (const uint64_t seed : {7u, 11u, 13u}) {
    const ShardedScenarioResult reference =
        RunShardedFlowRack(Mode::kSingleQueue, 1, seed);
    EXPECT_GT(reference.events, 50000u);
    // The congestion machinery genuinely engaged in the reference run:
    // counters[10..15] are the per-client CNP/pacer triples appended above.
    EXPECT_GT(reference.counters[10] + reference.counters[13], 0u)
        << "no CNPs reached either client at seed " << seed;
    const ShardedScenarioResult parallel =
        RunShardedFlowRack(Mode::kParallel, 4, seed);
    ExpectIdentical(reference, parallel, seed);
  }
}

// The identity contract's hardest case: a 4-rack row under a *global* power
// budget, with a correlated fault plan armed — uplink flap wave across three
// racks, a staggered FPGA death wave, a global brownout whose cap cascade
// evicts across racks. Row reports and caps ride PostCrossShard (the same
// conservative path packets use), so everything — client traffic, rack
// orchestrator decisions, row ledger history — must stay event-identical.
ShardedScenarioResult RunShardedPowerRow(Mode mode, int threads, uint64_t seed) {
  const int kRacks = 4;
  MultiRackOptions fabric_options;
  fabric_options.num_racks = kRacks;
  fabric_options.kvs_rate_per_second = 150000;
  fabric_options.dns_rate_per_second = 75000;
  fabric_options.prefill = 1000;
  fabric_options.keyspace = 1000;
  RowSpec spec = MakeMultiRackRowSpec(fabric_options);
  for (RowRackSpec& rack : spec.racks) {
    rack.scenario.members[0].target.initially_active = false;
    rack.scenario.members[0].target.name = "lake";
    rack.orchestrate = true;
    rack.orchestrator.check_period = Milliseconds(2);
    rack.orchestrator.min_dwell = Milliseconds(2);
    rack.orchestrator.sample_period = Milliseconds(2);
    rack.orchestrator.heartbeat_period = Milliseconds(1);
    rack.orchestrator.checkpoint_period = Milliseconds(2);
    RowAppSpec app;
    app.member = 0;
    rack.apps.push_back(app);
  }
  spec.power.global_budget_watts = 120;
  spec.power.report_period = Milliseconds(2);
  spec.power.apportion_period = Milliseconds(5);
  spec.power.sample_period = Milliseconds(2);
  spec.power.min_rack_watts = 5;
  AppendUplinkFlapWave(spec.faults, {0, 1, 2}, Milliseconds(6), Milliseconds(3),
                       /*stagger=*/Microseconds(500));
  AppendDeviceDeathWave(spec.faults, {0, 1, 2, 3}, "lake", Milliseconds(10),
                        /*stagger=*/Milliseconds(1));
  RowFaultEventSpec brownout;
  brownout.kind = RowFaultEventSpec::Kind::kGlobalBrownout;
  brownout.at = Milliseconds(14);
  brownout.watts = 50;
  spec.faults.events.push_back(brownout);

  ShardedSimulation ssim(ShardOptions(mode, kRacks + 1, threads, seed));
  RowScenario row(ssim, std::move(spec));
  row.Start();
  ssim.RunUntil(Milliseconds(20));

  ShardedScenarioResult result;
  result.events = ssim.events_executed();
  for (int r = 0; r < kRacks; ++r) {
    for (size_t c = 0; c < row.client_count(r); ++c) {
      AppendClient(&result, row.client(r, c));
    }
    const RackOrchestrator& rack = *row.rack_orchestrator(r);
    result.counters.push_back(rack.total_shifts());
    result.counters.push_back(rack.failures_detected());
    result.counters.push_back(rack.recoveries());
    result.counters.push_back(rack.flap_suppressions());
    result.counters.push_back(rack.checkpoints_taken());
    result.counters.push_back(rack.decision_log().size());
    result.counters.push_back(row.rack(r).faults().fault_log().size());
    result.counters.push_back(row.rack(r).faults().device_deaths());
    result.counters.push_back(
        static_cast<uint64_t>(rack.ledger().committed_watts() * 1e6));
    result.watts += row.rack(r).meter().MeanWatts(0, Milliseconds(20));
  }
  const RowOrchestrator& orch = *row.row_orchestrator();
  result.counters.push_back(orch.caps_issued());
  result.counters.push_back(orch.reports_received());
  result.counters.push_back(orch.apportion_rounds());
  result.counters.push_back(orch.global_brownouts());
  result.counters.push_back(orch.decision_log().size());
  result.counters.push_back(
      static_cast<uint64_t>(orch.ledger().apportioned_watts() * 1e6));
  return result;
}

TEST(EngineDiffTest, ShardedPowerRowIdenticalToSingleQueue) {
  for (const uint64_t seed : {7u, 11u, 13u}) {
    const ShardedScenarioResult reference =
        RunShardedPowerRow(Mode::kSingleQueue, 1, seed);
    EXPECT_GT(reference.events, 50000u) << "seed " << seed;
    // The row machinery actually ran: reports crossed shards, the global
    // brownout fired and the wave of deaths was detected.
    const size_t row_base = reference.counters.size() - 6;
    EXPECT_GT(reference.counters[row_base + 1], 0u) << "reports";
    EXPECT_EQ(reference.counters[row_base + 3], 1u) << "global brownout";
    const ShardedScenarioResult parallel =
        RunShardedPowerRow(Mode::kParallel, 4, seed);
    ExpectIdentical(reference, parallel, seed);
  }
}

TEST(EngineDiffTest, RunUntilBoundaryMatchesAcrossEngines) {
  for (const auto kind :
       {Simulation::EngineKind::kCalendar, Simulation::EngineKind::kHeap}) {
    Simulation sim(3, kind);
    Trace trace;
    std::vector<uint64_t> ids;
    for (int i = 0; i < 20; ++i) {
      // depth 6: record-only events, so exactly one event per 10 us slot.
      sim.Schedule(Microseconds(10 * i), DiffDriver{&sim, &trace, &ids, 99ULL * (i + 1),
                                                    static_cast<uint64_t>(i), 6});
    }
    sim.RunUntil(Microseconds(95));
    EXPECT_EQ(trace.size(), 10u) << "engine " << static_cast<int>(kind);
    EXPECT_EQ(sim.Now(), Microseconds(95));
  }
}

}  // namespace
}  // namespace incod
