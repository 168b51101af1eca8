// Tests for the experiment testbeds: component wiring, metering scope, and
// configuration validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/dns/zone.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/net/switch.h"
#include "src/net/topology.h"
#include "src/ondemand/migrator.h"
#include "src/power/cpu_power.h"
#include "src/scenarios/dns_testbed.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/multi_rack.h"
#include "src/scenarios/paxos_testbed.h"
#include "src/sim/sharded.h"
#include "src/workload/arrival.h"

namespace incod {
namespace {

TEST(KvsTestbedTest, SoftwareModeComponents) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kSoftwareOnly;
  KvsTestbed testbed(sim, options);
  EXPECT_NE(testbed.server(), nullptr);
  EXPECT_NE(testbed.nic(), nullptr);
  EXPECT_NE(testbed.memcached(), nullptr);
  EXPECT_EQ(testbed.fpga(), nullptr);
  EXPECT_EQ(testbed.lake(), nullptr);
  EXPECT_EQ(testbed.ServiceNode(), kTestbedServerNode);
}

TEST(KvsTestbedTest, LakeModeComponents) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  KvsTestbed testbed(sim, options);
  EXPECT_NE(testbed.server(), nullptr);
  EXPECT_NE(testbed.fpga(), nullptr);
  EXPECT_NE(testbed.lake(), nullptr);
  EXPECT_EQ(testbed.nic(), nullptr);
  EXPECT_TRUE(testbed.fpga()->app_active());
}

TEST(KvsTestbedTest, StandaloneModeHasNoHost) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLakeStandalone;
  KvsTestbed testbed(sim, options);
  EXPECT_EQ(testbed.server(), nullptr);
  EXPECT_EQ(testbed.memcached(), nullptr);
  EXPECT_NE(testbed.fpga(), nullptr);
  EXPECT_EQ(testbed.ServiceNode(), kTestbedDeviceNode);
}

TEST(KvsTestbedTest, LakeInitiallyInactiveOption) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  options.lake_initially_active = false;
  KvsTestbed testbed(sim, options);
  EXPECT_FALSE(testbed.fpga()->app_active());
}

TEST(KvsTestbedTest, SecondClientRejected) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kSoftwareOnly;
  KvsTestbed testbed(sim, options);
  auto factory = [](NodeId src, uint64_t id, SimTime now, Rng&) {
    return MakeKvRequestPacket(src, 1, KvRequest{}, id, now);
  };
  testbed.AddClient(LoadClientConfig{}, std::make_unique<ConstantArrival>(1000.0),
                    factory);
  EXPECT_THROW(testbed.AddClient(LoadClientConfig{},
                                 std::make_unique<ConstantArrival>(1000.0), factory),
               std::logic_error);
}

TEST(KvsTestbedTest, PrefillWarmsBothSides) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  KvsTestbed testbed(sim, options);
  testbed.Prefill(100, 64);
  EXPECT_EQ(testbed.memcached()->store().size(), 100u);
  EXPECT_GT(testbed.lake()->l1().size(), 0u);
  EXPECT_EQ(testbed.lake()->l2()->size(), 100u);
}

TEST(KvsTestbedTest, MeterSeesIdleAnchor) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kSoftwareOnly;
  KvsTestbed testbed(sim, options);
  // 35 W server + 4 W Mellanox NIC.
  EXPECT_NEAR(testbed.meter().InstantWatts(), 39.0, 0.1);
}

// Differential check for the declarative path: a spec/registry-built LaKe
// testbed must reproduce, event for event, the results of the original
// imperative wiring (reproduced by hand below with concrete app types and
// direct TestbedBuilder calls).
TEST(KvsTestbedTest, RegistryBuiltTestbedMatchesHandWiredResults) {
  struct RunResult {
    uint64_t received = 0;
    uint64_t completed = 0;
    uint64_t l1_hits = 0;
    uint64_t misses = 0;
    double p50 = 0;
    double watts = 0;
  };
  auto factory = [](NodeId src, uint64_t id, SimTime now, Rng& rng) {
    const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 999));
    return MakeKvRequestPacket(src, 1, KvRequest{KvOp::kGet, key, 0}, id, now);
  };
  auto drive = [&](Simulation& sim, LoadClient& client, Server& server,
                   LakeCache& lake, WallPowerMeter& meter) {
    client.Start();
    sim.RunUntil(Milliseconds(100));
    RunResult r;
    r.received = client.received();
    r.completed = server.requests_completed();
    r.l1_hits = lake.l1_hits();
    r.misses = lake.misses_to_host();
    r.p50 = client.latency().P50();
    r.watts = meter.MeanWatts(0, sim.Now());
    return r;
  };

  // Spec/registry path: KvsTestbed is a veneer over MakeKvsScenarioSpec.
  RunResult spec_result;
  {
    Simulation sim(21);
    KvsTestbedOptions options;
    options.mode = KvsMode::kLake;
    KvsTestbed testbed(sim, options);
    testbed.Prefill(1000, 64);
    auto& client = testbed.AddClient(LoadClientConfig{},
                                     std::make_unique<ConstantArrival>(300000.0),
                                     factory);
    spec_result = drive(sim, client, *testbed.server(), *testbed.lake(),
                        testbed.meter());
  }

  // Hand-wired path: the pre-redesign imperative construction.
  RunResult hand_result;
  {
    Simulation sim(21);
    TestbedBuilder builder(sim, Milliseconds(1));
    ServerConfig server_config;
    server_config.name = "i7-server";
    server_config.node = kTestbedServerNode;
    server_config.num_cores = 4;
    server_config.power_curve = I7MemcachedCurve();
    Server* server = builder.AddServer(server_config);
    MemcachedServer memcached;
    server->BindApp(&memcached);

    FpgaNicConfig fpga_config;
    fpga_config.name = "netfpga-lake";
    fpga_config.host_node = kTestbedServerNode;
    fpga_config.device_node = kTestbedDeviceNode;
    LakeCache lake;
    FpgaNic* fpga = builder.AddFpgaNic(fpga_config, &lake);
    builder.ConnectPcie(fpga, server, TestbedBuilder::PcieLink(Nanoseconds(2500)));
    fpga->SetAppActive(true);
    builder.StartMeter();

    for (uint64_t k = 0; k < 1000; ++k) {
      memcached.store().Set(k, 64);
    }
    lake.WarmFill(0, 1000, 64);

    LoadClient* client = builder.AddLoadClient(
        LoadClientConfig{}, std::make_unique<ConstantArrival>(300000.0), factory);
    builder.ConnectClient(client, fpga, TestbedBuilder::TenGigLink(Nanoseconds(100)));
    hand_result = drive(sim, *client, *server, lake, builder.meter());
  }

  EXPECT_GT(spec_result.received, 0u);
  EXPECT_EQ(spec_result.received, hand_result.received);
  EXPECT_EQ(spec_result.completed, hand_result.completed);
  EXPECT_EQ(spec_result.l1_hits, hand_result.l1_hits);
  EXPECT_EQ(spec_result.misses, hand_result.misses);
  EXPECT_DOUBLE_EQ(spec_result.p50, hand_result.p50);
  EXPECT_DOUBLE_EQ(spec_result.watts, hand_result.watts);
}

TEST(DnsTestbedTest, ModesAndZoneSharing) {
  Simulation sim(1);
  DnsTestbedOptions options;
  options.mode = DnsMode::kEmu;
  options.zone_size = 123;
  DnsTestbed testbed(sim, options);
  EXPECT_EQ(testbed.zone().size(), 123u);
  EXPECT_NE(testbed.emu(), nullptr);
  EXPECT_NE(testbed.nsd(), nullptr);  // Host fallback present in kEmu mode.
  EXPECT_EQ(testbed.ServiceNode(), kTestbedServerNode);

  DnsTestbedOptions standalone;
  standalone.mode = DnsMode::kEmuStandalone;
  DnsTestbed hostless(sim, standalone);
  EXPECT_EQ(hostless.server(), nullptr);
  EXPECT_EQ(hostless.ServiceNode(), kTestbedDeviceNode);
}

TEST(PaxosTestbedTest, LeaderSutVariantsWireExpectedComponents) {
  Simulation sim(1);
  {
    PaxosTestbedOptions options;
    options.deployment = PaxosDeployment::kLibpaxos;
    PaxosTestbed testbed(sim, options);
    EXPECT_NE(testbed.sut_server(), nullptr);
    EXPECT_EQ(testbed.sut_fpga(), nullptr);
    EXPECT_NE(testbed.software_leader(), nullptr);
    EXPECT_EQ(testbed.fpga_leader(), nullptr);
  }
  {
    PaxosTestbedOptions options;
    options.deployment = PaxosDeployment::kP4xosFpga;
    PaxosTestbed testbed(sim, options);
    EXPECT_NE(testbed.sut_server(), nullptr);  // Host enclosing the board.
    EXPECT_NE(testbed.sut_fpga(), nullptr);
    EXPECT_NE(testbed.fpga_leader(), nullptr);
    EXPECT_EQ(testbed.software_leader(), nullptr);
  }
  {
    PaxosTestbedOptions options;
    options.deployment = PaxosDeployment::kP4xosStandalone;
    PaxosTestbed testbed(sim, options);
    EXPECT_EQ(testbed.sut_server(), nullptr);
    EXPECT_NE(testbed.sut_fpga(), nullptr);
  }
}

TEST(PaxosTestbedTest, DualLeaderHasBothLeaders) {
  Simulation sim(1);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kP4xosFpga;
  options.dual_leader = true;
  PaxosTestbed testbed(sim, options);
  EXPECT_NE(testbed.software_leader(), nullptr);
  EXPECT_NE(testbed.fpga_leader(), nullptr);
  EXPECT_FALSE(testbed.sut_fpga()->app_active());  // Software serves first.
  EXPECT_GE(testbed.leader_port(), 0);
}

TEST(PaxosTestbedTest, GroupLayout) {
  Simulation sim(1);
  PaxosTestbedOptions options;
  options.num_acceptors = 5;
  PaxosTestbed testbed(sim, options);
  EXPECT_EQ(testbed.group().acceptors.size(), 5u);
  EXPECT_EQ(testbed.group().QuorumSize(), 3u);
  EXPECT_EQ(testbed.group().leader_service, kPaxosLeaderService);
  EXPECT_NE(testbed.learner(), nullptr);
}

TEST(PaxosTestbedTest, InvalidConfigsRejected) {
  Simulation sim(1);
  {
    PaxosTestbedOptions options;
    options.num_acceptors = 0;
    EXPECT_THROW(PaxosTestbed(sim, options), std::invalid_argument);
  }
  {
    PaxosTestbedOptions options;
    options.dual_leader = true;
    options.sut = PaxosSut::kAcceptor;
    EXPECT_THROW(PaxosTestbed(sim, options), std::invalid_argument);
  }
}

// Differential check for the switch-centric declarative path: the
// spec/registry-built Paxos group (PaxosTestbed is now a veneer over
// MakePaxosGroupSpec) must reproduce, event for event, the results of the
// original imperative wiring — reproduced by hand below with concrete app
// types and direct TestbedBuilder calls — including a Fig 7 leader shift
// through the switch-rule rewrite.
TEST(PaxosTestbedTest, SpecBuiltGroupMatchesHandWiredResults) {
  struct RunResult {
    uint64_t completed = 0;
    uint64_t sent = 0;
    uint64_t retries = 0;
    uint64_t leader_messages = 0;
    uint64_t hw_leader_messages = 0;
    uint64_t delivered = 0;
    double p50 = 0;
    double watts = 0;
  };
  PaxosClientConfig client_config;
  client_config.requests_per_second = 20000;
  client_config.retry_timeout = Milliseconds(100);

  auto drive = [&](Simulation& sim, PaxosClient& client, PaxosLeaderMigrator& migrator,
                   SoftwareLeader& sw_leader, P4xosFpgaApp& hw_leader,
                   SoftwareLearner& learner, WallPowerMeter& meter) {
    sim.Schedule(Milliseconds(200), [&] { migrator.ShiftToNetwork(); });
    sim.Schedule(Milliseconds(600), [&] { migrator.ShiftToHost(); });
    client.Start();
    sim.RunUntil(Seconds(1));
    RunResult r;
    r.completed = client.completed();
    r.sent = client.sent();
    r.retries = client.retries();
    r.leader_messages = sw_leader.messages_handled();
    r.hw_leader_messages = hw_leader.messages_handled();
    r.delivered = learner.state().delivered_count();
    r.p50 = client.latency().P50();
    r.watts = meter.MeanWatts(0, sim.Now());
    return r;
  };

  // Spec/registry path: the dual-leader group as PaxosTestbed builds it.
  RunResult spec_result;
  {
    Simulation sim(21);
    PaxosTestbedOptions options;
    options.deployment = PaxosDeployment::kP4xosFpga;
    options.dual_leader = true;
    options.client = client_config;
    PaxosTestbed testbed(sim, options);
    PaxosLeaderMigrator migrator(sim, testbed.net_switch(), kPaxosLeaderService,
                                 *testbed.software_leader(), testbed.leader_port(),
                                 *testbed.sut_fpga(), *testbed.fpga_leader(),
                                 testbed.leader_port());
    spec_result = drive(sim, testbed.client(), migrator, *testbed.software_leader(),
                        *testbed.fpga_leader(), *testbed.learner(), testbed.meter());
  }

  // Hand-wired path: the pre-redesign imperative construction.
  RunResult hand_result;
  {
    Simulation sim(21);
    TestbedBuilder builder(sim, Milliseconds(1));
    PaxosGroupConfig group;
    group.acceptors = {kPaxosAcceptorBaseNode, kPaxosAcceptorBaseNode + 1,
                       kPaxosAcceptorBaseNode + 2};
    group.learners = {kPaxosLearnerNode};
    group.leader_service = kPaxosLeaderService;

    L2Switch* sw = builder.AddL2Switch("tor-switch");

    ServerConfig server_config;
    server_config.name = "leader-host";
    server_config.node = kPaxosLeaderHostNode;
    server_config.num_cores = 4;
    server_config.power_curve = I7LibpaxosCurve();
    Server* host = builder.AddServer(server_config);
    SoftwareLeader sw_leader(group, /*ballot=*/1);
    host->BindApp(&sw_leader);

    FpgaNicConfig fpga_config;
    fpga_config.name = "netfpga-p4xos-leader";
    fpga_config.host_node = kPaxosLeaderHostNode;
    fpga_config.device_node = kPaxosLeaderDeviceNode;
    P4xosFpgaApp hw_leader(P4xosRole::kLeader, group, /*role_id=*/1,
                           kPaxosLeaderService);
    FpgaNic* fpga = builder.AddFpgaNic(fpga_config, &hw_leader);
    fpga->SetAppActive(false);
    const int leader_port = builder.ConnectToSwitchPort(
        sw, fpga, {kPaxosLeaderService, kPaxosLeaderHostNode, kPaxosLeaderDeviceNode},
        TestbedBuilder::TenGigLink(), "leader-10ge");
    builder.ConnectPcie(fpga, host, TestbedBuilder::PcieLink(), "leader-10ge-pcie");

    std::vector<std::unique_ptr<SoftwareAcceptor>> acceptors;
    for (int i = 0; i < 3; ++i) {
      Server* server = builder.AddAuxServer(
          sw, kPaxosAcceptorBaseNode + static_cast<NodeId>(i), "aux-acceptor", 4);
      acceptors.push_back(std::make_unique<SoftwareAcceptor>(
          group, static_cast<uint32_t>(i), PaxosSoftwareConfig{Nanoseconds(300), 2}));
      server->BindApp(acceptors.back().get());
    }
    Server* learner_host = builder.AddAuxServer(sw, kPaxosLearnerNode, "learner-host", 8);
    SoftwareLearner learner(group, PaxosSoftwareConfig{Nanoseconds(100), 8},
                            Milliseconds(50));
    learner_host->BindApp(&learner);
    builder.StartMeter();
    learner.StartGapTimer();

    PaxosClientConfig config = client_config;
    config.node = kPaxosClientNode;
    config.leader_service = kPaxosLeaderService;
    PaxosClient client(sim, config);
    Link* link = builder.topology().ConnectToSwitch(sw, &client, kPaxosClientNode,
                                                    TestbedBuilder::TenGigLink(),
                                                    "client-10ge");
    client.SetUplink(link);

    PaxosLeaderMigrator migrator(sim, *sw, kPaxosLeaderService, sw_leader, leader_port,
                                 *fpga, hw_leader, leader_port);
    hand_result = drive(sim, client, migrator, sw_leader, hw_leader, learner,
                        builder.meter());
  }

  EXPECT_GT(spec_result.completed, 0u);
  EXPECT_EQ(spec_result.completed, hand_result.completed);
  EXPECT_EQ(spec_result.sent, hand_result.sent);
  EXPECT_EQ(spec_result.retries, hand_result.retries);
  EXPECT_EQ(spec_result.leader_messages, hand_result.leader_messages);
  EXPECT_EQ(spec_result.hw_leader_messages, hand_result.hw_leader_messages);
  EXPECT_EQ(spec_result.delivered, hand_result.delivered);
  EXPECT_DOUBLE_EQ(spec_result.p50, hand_result.p50);
  EXPECT_DOUBLE_EQ(spec_result.watts, hand_result.watts);
}

TEST(PaxosTestbedTest, AcceptorSutUsesHardwareLeader) {
  Simulation sim(1);
  PaxosTestbedOptions options;
  options.sut = PaxosSut::kAcceptor;
  options.deployment = PaxosDeployment::kLibpaxos;
  PaxosTestbed testbed(sim, options);
  // The leader must never bottleneck an acceptor sweep: it runs on an
  // (unmetered) FPGA regardless of the acceptor deployment under test.
  EXPECT_NE(testbed.fpga_leader(), nullptr);
  EXPECT_NE(testbed.software_acceptor(0), nullptr);
  EXPECT_NE(testbed.sut_server(), nullptr);
}

// --- MultiRackScenario: veneer over RowSpec vs hand-wired construction ---

struct MultiRackRunResult {
  uint64_t events = 0;
  std::vector<uint64_t> counters;
  double watts = 0;
};

void AppendClientCounters(MultiRackRunResult* result, const LoadClient& client) {
  result->counters.push_back(client.sent());
  result->counters.push_back(client.received());
  result->counters.push_back(client.lost());
  result->counters.push_back(client.latency().P50());
  result->counters.push_back(client.latency().P99());
}

ShardedSimulation::Options MultiRackShardOptions(ShardedSimulation::Mode mode,
                                                 int shards, int threads,
                                                 uint64_t seed) {
  ShardedSimulation::Options sharded;
  sharded.num_shards = shards;
  sharded.num_threads = threads;
  sharded.mode = mode;
  sharded.seed = seed;
  return sharded;
}

MultiRackOptions SmallMultiRackOptions() {
  MultiRackOptions options;
  options.num_racks = 2;
  options.kvs_rate_per_second = 200000;
  options.dns_rate_per_second = 100000;
  options.prefill = 1000;
  options.keyspace = 1000;
  return options;
}

// The pre-row imperative construction, kept verbatim as the differential
// reference: every rack a ScenarioTestbed wired by hand, clients added with
// hand-rolled factories, uplinks and spine routes strung up one by one.
MultiRackRunResult RunHandWiredMultiRack(ShardedSimulation::Mode mode, int threads,
                                         uint64_t seed) {
  const MultiRackOptions options = SmallMultiRackOptions();
  const int num_racks = options.num_racks;
  ShardedSimulation ssim(
      MultiRackShardOptions(mode, num_racks + 1, threads, seed));

  Zone zone;
  zone.FillSynthetic(options.zone_size);
  auto spine = std::make_unique<L2Switch>(ssim.shard(num_racks), "spine");
  Topology spine_topology(ssim.shard(num_racks));
  spine_topology.SetSharded(&ssim, num_racks);
  spine_topology.AssignShard(spine.get(), num_racks);

  std::vector<std::unique_ptr<ScenarioTestbed>> racks;
  std::vector<LoadClient*> kvs_clients;
  std::vector<LoadClient*> dns_clients;
  const auto kvs_host = [](int r) { return MultiRackScenario::KvsHostNode(r); };

  for (int r = 0; r < num_racks; ++r) {
    ScenarioSpec spec;
    spec.name = "rack-" + std::to_string(r);
    spec.shard = r;
    spec.meter_period = options.meter_period;
    spec.env.zone = &zone;
    spec.tor.present = true;
    spec.tor.asic = false;
    spec.tor.name = "tor-" + std::to_string(r);
    {
      ScenarioMemberSpec kvs;
      kvs.name = "kvs";
      kvs.link_name = "kvs-10ge";
      kvs.host.config.name = spec.name + "-kvs-host";
      kvs.host.config.node = kvs_host(r);
      kvs.host.config.num_cores = 4;
      kvs.host.config.power_curve = I7MemcachedCurve();
      kvs.host.apps = {"kvs"};
      kvs.target.kind = ScenarioTargetKind::kFpgaNic;
      kvs.target.name = spec.name + "-lake";
      kvs.target.device_node = MultiRackScenario::KvsDeviceNode(r);
      kvs.target.app = "kvs";
      kvs.switch_routes = {kvs_host(r), MultiRackScenario::KvsDeviceNode(r)};
      spec.members.push_back(std::move(kvs));
    }
    {
      ScenarioMemberSpec dns;
      dns.name = "dns";
      dns.link_name = "dns-10ge";
      dns.host.config.name = spec.name + "-dns-host";
      dns.host.config.node = MultiRackScenario::DnsHostNode(r);
      dns.host.config.num_cores = 4;
      dns.host.config.power_curve = I7NsdCurve();
      dns.host.apps = {"dns"};
      dns.target.kind = ScenarioTargetKind::kConventionalNic;
      dns.switch_routes = {MultiRackScenario::DnsHostNode(r)};
      dns.env.service = MultiRackScenario::DnsHostNode(r);
      spec.members.push_back(std::move(dns));
    }
    racks.push_back(std::make_unique<ScenarioTestbed>(ssim, std::move(spec)));
    ScenarioTestbed& rack = *racks.back();

    LoadClientConfig kvs_client;
    kvs_client.node = MultiRackScenario::KvsClientNode(r);
    const NodeId local = kvs_host(r);
    const NodeId remote = kvs_host((r + 1) % num_racks);
    const int64_t max_key =
        std::max<int64_t>(0, static_cast<int64_t>(options.keyspace) - 1);
    const double cross_fraction = options.cross_rack_fraction;
    kvs_clients.push_back(&rack.AddTorClient(
        kvs_client, std::make_unique<PoissonArrival>(options.kvs_rate_per_second),
        [local, remote, max_key, cross_fraction](NodeId src, uint64_t id,
                                                 SimTime now, Rng& rng) {
          const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, max_key));
          const bool cross = rng.UniformDouble(0.0, 1.0) < cross_fraction;
          return MakeKvRequestPacket(src, cross ? remote : local,
                                     KvRequest{KvOp::kGet, key, 0}, id, now);
        }));

    LoadClientConfig dns_client;
    dns_client.node = MultiRackScenario::DnsClientNode(r);
    ScenarioWorkloadSpec dns_workload;
    dns_workload.kind = ScenarioWorkloadSpec::Kind::kDnsQueries;
    dns_clients.push_back(&rack.AddTorClient(
        dns_client, std::make_unique<PoissonArrival>(options.dns_rate_per_second),
        MakeScenarioRequestFactory(dns_workload, MultiRackScenario::DnsHostNode(r),
                                   &zone)));
  }

  for (int r = 0; r < num_racks; ++r) {
    ScenarioTestbed& rack = *racks[static_cast<size_t>(r)];
    L2Switch* tor = rack.tor();
    spine_topology.AssignShard(tor, r);
    Link::Config uplink;
    uplink.gigabits_per_second = options.uplink_gigabits_per_second;
    uplink.propagation_delay = options.inter_rack_propagation;
    Link* link = spine_topology.Connect(tor, spine.get(), uplink,
                                        "uplink-" + std::to_string(r));
    const int tor_port = tor->AttachLink(link);
    tor->SetDefaultRoute(tor_port);
    const int spine_port = spine->AttachLink(link);
    for (NodeId node :
         {kvs_host(r), MultiRackScenario::DnsHostNode(r),
          MultiRackScenario::KvsDeviceNode(r), MultiRackScenario::KvsClientNode(r),
          MultiRackScenario::DnsClientNode(r)}) {
      spine->AddRoute(node, spine_port);
    }

    auto* memcached = rack.member_host_app_as<MemcachedServer>(0);
    auto* lake = rack.member_offload_app_as<LakeCache>(0);
    for (uint64_t k = 0; k < options.prefill; ++k) {
      memcached->store().Set(k, options.value_bytes);
    }
    lake->WarmFill(0, options.prefill, options.value_bytes);
  }

  for (LoadClient* client : kvs_clients) {
    client->Start();
  }
  for (LoadClient* client : dns_clients) {
    client->Start();
  }
  ssim.RunUntil(Milliseconds(15));

  MultiRackRunResult result;
  result.events = ssim.events_executed();
  for (int r = 0; r < num_racks; ++r) {
    AppendClientCounters(&result, *kvs_clients[static_cast<size_t>(r)]);
    AppendClientCounters(&result, *dns_clients[static_cast<size_t>(r)]);
    result.watts +=
        racks[static_cast<size_t>(r)]->meter().MeanWatts(0, Milliseconds(15));
  }
  return result;
}

MultiRackRunResult RunVeneerMultiRack(ShardedSimulation::Mode mode, int threads,
                                      uint64_t seed) {
  const MultiRackOptions options = SmallMultiRackOptions();
  ShardedSimulation ssim(
      MultiRackShardOptions(mode, options.num_racks + 1, threads, seed));
  MultiRackScenario fabric(ssim, options);
  fabric.Start();
  ssim.RunUntil(Milliseconds(15));

  MultiRackRunResult result;
  result.events = ssim.events_executed();
  for (int r = 0; r < fabric.num_racks(); ++r) {
    AppendClientCounters(&result, fabric.kvs_client(r));
    AppendClientCounters(&result, fabric.dns_client(r));
    result.watts += fabric.rack(r).meter().MeanWatts(0, Milliseconds(15));
  }
  return result;
}

// The RowSpec veneer must be event-identical to the pre-row hand-wired
// construction — in the single-queue engine *and* when the veneer runs
// sharded-parallel against the hand-wired single-queue reference.
TEST(MultiRackTest, VeneerMatchesHandWiredEventStream) {
  for (const uint64_t seed : {7u, 21u}) {
    const MultiRackRunResult hand =
        RunHandWiredMultiRack(ShardedSimulation::Mode::kSingleQueue, 1, seed);
    EXPECT_GT(hand.events, 50000u) << "seed " << seed;  // Non-trivial run.
    for (const auto mode : {ShardedSimulation::Mode::kSingleQueue,
                            ShardedSimulation::Mode::kParallel}) {
      const int threads = mode == ShardedSimulation::Mode::kParallel ? 3 : 1;
      const MultiRackRunResult veneer = RunVeneerMultiRack(mode, threads, seed);
      EXPECT_EQ(hand.events, veneer.events)
          << "seed " << seed << " mode " << static_cast<int>(mode);
      ASSERT_EQ(hand.counters.size(), veneer.counters.size());
      for (size_t i = 0; i < hand.counters.size(); ++i) {
        EXPECT_EQ(hand.counters[i], veneer.counters[i])
            << "counter " << i << " seed " << seed << " mode "
            << static_cast<int>(mode);
      }
      EXPECT_DOUBLE_EQ(hand.watts, veneer.watts) << "seed " << seed;
    }
  }
}

TEST(MultiRackTest, VeneerExposesRowWiring) {
  MultiRackOptions options = SmallMultiRackOptions();
  ShardedSimulation ssim(MultiRackShardOptions(
      ShardedSimulation::Mode::kSingleQueue, options.num_racks + 1, 1, 7));
  MultiRackScenario fabric(ssim, options);
  EXPECT_EQ(fabric.num_racks(), 2);
  EXPECT_EQ(fabric.row().num_racks(), 2);
  EXPECT_EQ(fabric.row().spine_shard(), 2);
  // Plain fabric: no orchestration, no global budget.
  EXPECT_EQ(fabric.row().rack_orchestrator(0), nullptr);
  EXPECT_EQ(fabric.row().row_orchestrator(), nullptr);
  // The spec builder names racks and uplinks the way the fabric always has.
  const RowSpec spec = MakeMultiRackRowSpec(options);
  ASSERT_EQ(spec.racks.size(), 2u);
  EXPECT_EQ(spec.racks[0].scenario.name, "rack-0");
  EXPECT_EQ(spec.racks[1].scenario.name, "rack-1");
  EXPECT_EQ(spec.racks[0].clients.size(), 2u);
  EXPECT_EQ(spec.racks[0].clients[0].workload.cross_service,
            MultiRackScenario::KvsHostNode(1));
  EXPECT_EQ(spec.racks[1].clients[0].workload.cross_service,
            MultiRackScenario::KvsHostNode(0));
}

// --- ScenarioSpec validation: every malformed spec is rejected at build ---

// A member the specs below start from: host + LaKe FPGA NIC.
ScenarioMemberSpec ValidKvsMember() {
  ScenarioMemberSpec member;
  member.name = "kvs";
  member.host.config.node = 1;
  member.host.apps = {"kvs"};
  member.target.kind = ScenarioTargetKind::kFpgaNic;
  member.target.device_node = 50;
  member.target.app = "kvs";
  member.switch_routes = {1, 50};
  return member;
}

ScenarioSpec TorSpec(bool asic) {
  ScenarioSpec spec;
  spec.tor.present = true;
  spec.tor.asic = asic;
  spec.members.push_back(ValidKvsMember());
  return spec;
}

// The §4.1 chain: one member, no ToR.
ScenarioSpec ChainSpec() {
  ScenarioSpec spec;
  spec.members.push_back(ValidKvsMember());
  return spec;
}

TEST(ScenarioSpecTest, MalformedSpecsThrowInvalidArgument) {
  struct Case {
    const char* name;
    std::function<ScenarioSpec()> make;
    // The spec builds, and handing member 0 to an orchestrator throws.
    bool orchestrate = false;
    bool switch_option = false;
  };
  const std::vector<Case> cases = {
      {"hostless chain without an FPGA",
       [] {
         ScenarioSpec spec = ChainSpec();
         spec.members[0].host.present = false;
         spec.members[0].host.apps.clear();
         spec.members[0].target.kind = ScenarioTargetKind::kNone;
         return spec;
       }},
      {"chain host without an ingress device",
       [] {
         ScenarioSpec spec = ChainSpec();
         spec.members[0].target.kind = ScenarioTargetKind::kNone;
         return spec;
       }},
      {"chain conventional NIC without a host",
       [] {
         ScenarioSpec spec = ChainSpec();
         spec.members[0].host.present = false;
         spec.members[0].host.apps.clear();
         spec.members[0].target.kind = ScenarioTargetKind::kConventionalNic;
         spec.members[0].target.app.clear();
         return spec;
       }},
      {"chain SmartNIC without a host",
       [] {
         ScenarioSpec spec = ChainSpec();
         spec.members[0].host.present = false;
         spec.members[0].host.apps.clear();
         spec.members[0].target.kind = ScenarioTargetKind::kSmartNic;
         return spec;
       }},
      {"chain with an aux member",
       [] {
         ScenarioSpec spec = ChainSpec();
         spec.members[0].aux = true;
         spec.members[0].target.kind = ScenarioTargetKind::kNone;
         return spec;
       }},
      {"spec without a ToR and without members",
       [] {
         ScenarioSpec spec = ChainSpec();
         spec.members.clear();
         return spec;
       }},
      {"spec without a ToR and with two members",
       [] {
         ScenarioSpec spec = ChainSpec();
         spec.members.push_back(ValidKvsMember());
         spec.members[1].name = "kvs-2";
         return spec;
       }},
      {"member conventional NIC without a host",
       [] {
         ScenarioSpec spec = TorSpec(false);
         spec.members[0].host.present = false;
         spec.members[0].host.apps.clear();
         spec.members[0].target.kind = ScenarioTargetKind::kConventionalNic;
         spec.members[0].target.app.clear();
         return spec;
       }},
      {"member SmartNIC without a host",
       [] {
         ScenarioSpec spec = TorSpec(false);
         spec.members[0].host.present = false;
         spec.members[0].host.apps.clear();
         spec.members[0].target.kind = ScenarioTargetKind::kSmartNic;
         return spec;
       }},
      {"non-aux member host without an ingress device",
       [] {
         ScenarioSpec spec = TorSpec(false);
         spec.members[0].target.kind = ScenarioTargetKind::kNone;
         return spec;
       }},
      {"aux member carrying a target",
       [] {
         ScenarioSpec spec = TorSpec(false);
         spec.members[0].aux = true;
         return spec;
       }},
      {"aux member carrying a switch app",
       [] {
         ScenarioSpec spec = TorSpec(true);
         spec.members[0].aux = true;
         spec.members[0].target.kind = ScenarioTargetKind::kNone;
         spec.members[0].switch_app = "kvs";
         return spec;
       }},
      {"switch app without an ASIC ToR",
       [] {
         ScenarioSpec spec = TorSpec(false);
         spec.members[0].switch_app = "kvs";
         return spec;
       }},
      {"declarative workload on a ToR spec",
       [] {
         ScenarioSpec spec = TorSpec(false);
         spec.workload.kind = ScenarioWorkloadSpec::Kind::kKvUniformGets;
         return spec;
       }},
      {"orchestrated member without a host app",
       [] {
         ScenarioSpec spec = TorSpec(false);
         spec.members[0].host.apps.clear();
         return spec;
       },
       /*orchestrate=*/true},
      {"orchestrated member without a placement",
       [] {
         ScenarioSpec spec = TorSpec(false);
         spec.members[0].target.app.clear();
         return spec;
       },
       /*orchestrate=*/true},
      {"orchestrated switch option without a switch app",
       [] { return TorSpec(true); }, /*orchestrate=*/true, /*switch_option=*/true},
  };
  const auto orchestrate = [](ScenarioTestbed& testbed, bool switch_option) {
    RackOrchestrator orchestrator(testbed.sim());
    std::vector<std::unique_ptr<StateTransferMigrator>> migrators;
    RackAppSpec app;
    app.software_watts = [](double) { return 40.0; };
    OrchestrateMember(testbed, 0, std::move(app), [](double) { return 45.0; },
                      switch_option, orchestrator, migrators);
  };
  // The specs the cases start from are well formed: each throw below is the
  // one defect the case introduces.
  {
    Simulation sim(1);
    EXPECT_NO_THROW(ScenarioTestbed(sim, ChainSpec()));
  }
  for (const bool asic : {false, true}) {
    Simulation sim(1);
    EXPECT_NO_THROW(ScenarioTestbed(sim, TorSpec(asic))) << "asic " << asic;
  }
  {
    Simulation sim(1);
    ScenarioSpec spec = TorSpec(true);
    spec.members[0].switch_app = "kvs";
    spec.members[0].env.service = 1;
    ScenarioTestbed testbed(sim, spec);
    EXPECT_NO_THROW(orchestrate(testbed, /*switch_option=*/true));
  }
  for (const Case& c : cases) {
    Simulation sim(1);
    if (!c.orchestrate) {
      EXPECT_THROW(ScenarioTestbed(sim, c.make()), std::invalid_argument) << c.name;
      continue;
    }
    ScenarioTestbed testbed(sim, c.make());
    EXPECT_THROW(orchestrate(testbed, c.switch_option), std::invalid_argument) << c.name;
  }
}

// Only a ToR-less spec has an ingress for AddClient; a ToR takes
// AddTorClient clients instead.
TEST(ScenarioSpecTest, AddClientNeedsSpecWithoutTor) {
  auto factory = [](NodeId src, uint64_t id, SimTime now, Rng&) {
    return MakeKvRequestPacket(src, 1, KvRequest{}, id, now);
  };
  Simulation sim(1);
  ScenarioTestbed rack(sim, TorSpec(false));
  EXPECT_THROW(rack.AddClient(LoadClientConfig{},
                              std::make_unique<ConstantArrival>(1000.0), factory),
               std::logic_error);
  ScenarioTestbed chain(sim, ChainSpec());
  EXPECT_THROW(chain.AddTorClient(LoadClientConfig{},
                                  std::make_unique<ConstantArrival>(1000.0), factory),
               std::logic_error);
  LoadClient& client = chain.AddClient(
      LoadClientConfig{}, std::make_unique<ConstantArrival>(1000.0), factory);
  EXPECT_EQ(chain.client(), &client);
  EXPECT_EQ(chain.ServiceNode(), 1u);  // Member 0's host.
}

}  // namespace
}  // namespace incod
