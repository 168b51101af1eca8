// Tests for the in-switch applications (NetCache-style KVS, switch DNS,
// P4xos on the ASIC) and the §9.2 park policies.
#include <gtest/gtest.h>

#include <memory>

#include "src/device/fpga_nic.h"
#include "src/device/switch_asic.h"
#include "src/dns/switch_dns.h"
#include "src/host/server.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/kvs/netcache.h"
#include "src/net/topology.h"
#include "src/ondemand/migrator.h"
#include "src/paxos/p4xos.h"
#include "src/paxos/roles.h"
#include "src/sim/simulation.h"
#include "src/stats/count_min.h"

namespace incod {
namespace {

// ---- Count-min sketch ----

TEST(CountMinTest, NeverUndercounts) {
  CountMinSketch sketch(256, 3);
  Rng rng(5);
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 500));
    sketch.Increment(key);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(sketch.Estimate(key), count) << key;
  }
}

TEST(CountMinTest, ReasonableOverestimate) {
  CountMinSketch sketch(4096, 4);
  for (uint64_t k = 0; k < 1000; ++k) {
    sketch.Increment(k);
  }
  sketch.Increment(42, 100);
  // 42 has 101 true; estimate within a small collision margin.
  EXPECT_GE(sketch.Estimate(42), 101u);
  EXPECT_LE(sketch.Estimate(42), 111u);
  EXPECT_EQ(sketch.Estimate(999999), 0u);
}

TEST(CountMinTest, DecayHalves) {
  CountMinSketch sketch(64, 2);
  sketch.Increment(7, 100);
  sketch.Decay();
  EXPECT_GE(sketch.Estimate(7), 50u);
  EXPECT_LE(sketch.Estimate(7), 51u);
  sketch.Clear();
  EXPECT_EQ(sketch.Estimate(7), 0u);
}

TEST(CountMinTest, RejectsZeroDimensions) {
  EXPECT_THROW(CountMinSketch(0, 2), std::invalid_argument);
  EXPECT_THROW(CountMinSketch(16, 0), std::invalid_argument);
}

// ---- In-switch KVS cache ----

struct SwitchKvsHarness {
  SwitchKvsHarness() : sim(1), topo(sim), sw(sim, AsicConfig()), cache(CacheConfig()) {
    // Port 0: client side; port 1: server side.
    client_link = topo.ConnectToSwitch(&sw, &client, 100);
    server_link = topo.ConnectToSwitch(&sw, &server_sink, 1);
    sw.LoadProgram(&cache);
  }
  static SwitchAsicConfig AsicConfig() {
    SwitchAsicConfig config;
    config.rate_window = Milliseconds(10);
    return config;
  }
  static KvSwitchCacheConfig CacheConfig() {
    KvSwitchCacheConfig config;
    config.kvs_service = 1;
    config.cache_entries = 64;
    config.hot_threshold = 3;
    return config;
  }
  struct Collector : PacketSink {
    void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
    std::string SinkName() const override { return "side"; }
    std::vector<Packet> packets;
  };
  void SendGet(uint64_t key, uint64_t id) {
    sw.Receive(MakeKvRequestPacket(100, 1, KvRequest{KvOp::kGet, key, 0}, id, sim.Now()));
  }
  void SendServerResponse(uint64_t key, uint32_t bytes, uint64_t id) {
    sw.Receive(
        MakeKvResponsePacket(1, 100, KvResponse{KvOp::kGet, key, true, bytes}, id, sim.Now()));
  }
  Simulation sim;
  Topology topo;
  SwitchAsic sw;
  KvSwitchCache cache;
  Collector client;
  Collector server_sink;
  Link* client_link;
  Link* server_link;
};

TEST(KvSwitchCacheTest, MissForwardsToServer) {
  SwitchKvsHarness h;
  h.SendGet(5, 1);
  h.sim.Run();
  EXPECT_EQ(h.server_sink.packets.size(), 1u);
  EXPECT_TRUE(h.client.packets.empty());
  EXPECT_EQ(h.cache.misses_forwarded(), 1u);
}

TEST(KvSwitchCacheTest, HotKeyGetsCachedFromResponses) {
  SwitchKvsHarness h;
  // Three misses cross the hot threshold; the third response inserts.
  for (uint64_t id = 1; id <= 3; ++id) {
    h.SendGet(5, id);
    h.SendServerResponse(5, 64, id);
  }
  h.sim.Run();
  EXPECT_GT(h.cache.insertions(), 0u);
  EXPECT_TRUE(h.cache.cache().Contains(5));
  // The next GET is served by the switch at line rate.
  h.SendGet(5, 10);
  h.sim.Run();
  EXPECT_EQ(h.cache.hits(), 1u);
  // Client got 3 passed-through responses + 1 switch reply.
  EXPECT_EQ(h.client.packets.size(), 4u);
}

TEST(KvSwitchCacheTest, CachedHitIsNotAlsoForwardedToServer) {
  // Regression: the switch reply re-enters the pipeline synchronously (the
  // response passes back through the same program); that inner pass must
  // not clobber the outer pass's consumed-verdict, or the already-answered
  // request would also reach the server and be answered twice.
  SwitchKvsHarness h;
  h.cache.cache().Set(5, 64);  // Warm the register array directly.
  h.SendGet(5, 1);
  h.sim.Run();
  EXPECT_EQ(h.cache.hits(), 1u);
  EXPECT_EQ(h.client.packets.size(), 1u);     // The line-rate reply.
  EXPECT_TRUE(h.server_sink.packets.empty());  // Request terminated in-switch.
}

TEST(KvSwitchCacheTest, ColdKeyNotCached) {
  SwitchKvsHarness h;
  h.SendGet(9, 1);
  h.SendServerResponse(9, 64, 1);  // Only one access: below threshold.
  h.sim.Run();
  EXPECT_FALSE(h.cache.cache().Contains(9));
  EXPECT_EQ(h.cache.insertions(), 0u);
}

TEST(KvSwitchCacheTest, OversizedValuesNotCached) {
  SwitchKvsHarness h;
  for (uint64_t id = 1; id <= 5; ++id) {
    h.SendGet(7, id);
    h.SendServerResponse(7, 4096, id);  // Exceeds max_value_bytes.
  }
  h.sim.Run();
  EXPECT_FALSE(h.cache.cache().Contains(7));
}

TEST(KvSwitchCacheTest, WritesInvalidate) {
  SwitchKvsHarness h;
  h.cache.cache().Set(5, 64);
  h.sw.Receive(MakeKvRequestPacket(100, 1, KvRequest{KvOp::kSet, 5, 32}, 1, 0));
  h.sim.Run();
  EXPECT_FALSE(h.cache.cache().Contains(5));
  EXPECT_EQ(h.cache.invalidations(), 1u);
  // The SET continued to the server.
  EXPECT_EQ(h.server_sink.packets.size(), 1u);
}

TEST(KvSwitchCacheTest, RequiresServiceAddress) {
  EXPECT_THROW(KvSwitchCache{KvSwitchCacheConfig{}}, std::invalid_argument);
}

// ---- In-switch DNS ----

struct SwitchDnsHarness {
  SwitchDnsHarness() : sim(1), topo(sim), sw(sim, SwitchAsicConfig{}) {
    zone.FillSynthetic(32);
    DnsSwitchConfig config;
    config.dns_service = 1;
    config.max_labels = 4;
    program = std::make_unique<DnsSwitchProgram>(&zone, config);
    topo.ConnectToSwitch(&sw, &client, 100);
    topo.ConnectToSwitch(&sw, &host, 1);
    sw.LoadProgram(program.get());
  }
  struct Collector : PacketSink {
    void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
    std::string SinkName() const override { return "side"; }
    std::vector<Packet> packets;
  };
  Packet Query(const std::string& name, uint16_t qtype = kDnsTypeA) {
    DnsMessage query;
    query.id = 1;
    query.questions.push_back(DnsQuestion{name, qtype, kDnsClassIn});
    Packet pkt;
    pkt.src = 100;
    pkt.dst = 1;
    pkt.proto = AppProto::kDns;
    pkt.size_bytes = DnsWireBytes(query);
    pkt.payload = query;
    return pkt;
  }
  Simulation sim;
  Topology topo;
  Zone zone;
  SwitchAsic sw;
  std::unique_ptr<DnsSwitchProgram> program;
  Collector client;
  Collector host;
};

TEST(DnsSwitchTest, AnswersAtLineRate) {
  SwitchDnsHarness h;
  h.sw.Receive(h.Query(Zone::SyntheticName(3)));
  h.sim.Run();
  ASSERT_EQ(h.client.packets.size(), 1u);
  EXPECT_TRUE(h.host.packets.empty());
  EXPECT_EQ(PayloadAs<DnsMessage>(h.client.packets[0]).rcode, DnsRcode::kNoError);
  EXPECT_EQ(h.program->answered(), 1u);
}

TEST(DnsSwitchTest, NxDomainForAbsentNames) {
  SwitchDnsHarness h;
  h.sw.Receive(h.Query("nope.absent.example"));
  h.sim.Run();
  ASSERT_EQ(h.client.packets.size(), 1u);
  EXPECT_EQ(PayloadAs<DnsMessage>(h.client.packets[0]).rcode, DnsRcode::kNxDomain);
}

TEST(DnsSwitchTest, DeepNamesPuntToHost) {
  SwitchDnsHarness h;
  h.sw.Receive(h.Query("a.b.c.d.e.f"));  // 6 labels > 4 budget.
  h.sim.Run();
  EXPECT_EQ(h.program->punted_to_host(), 1u);
  EXPECT_EQ(h.host.packets.size(), 1u);
  EXPECT_TRUE(h.client.packets.empty());
}

TEST(DnsSwitchTest, NonATypesPuntToHost) {
  SwitchDnsHarness h;
  h.sw.Receive(h.Query(Zone::SyntheticName(1), kDnsTypeAaaa));
  h.sim.Run();
  EXPECT_EQ(h.program->punted_to_host(), 1u);
  EXPECT_EQ(h.host.packets.size(), 1u);
}

TEST(DnsSwitchTest, RejectsBadConstruction) {
  Zone zone;
  EXPECT_THROW(DnsSwitchProgram(nullptr, DnsSwitchConfig{}), std::invalid_argument);
  EXPECT_THROW(DnsSwitchProgram(&zone, DnsSwitchConfig{}), std::invalid_argument);
}

// ---- Full Paxos round through the switch ASIC ----

TEST(P4xosSwitchTest, ConsensusThroughThePipeline) {
  // Leader AND the three acceptors all live in the switch (NetChain-style);
  // a software learner delivers; the client gets its response — all in one
  // traversal fan-out, no server on the leader path.
  Simulation sim(1);
  Topology topo(sim);
  SwitchAsicConfig asic_config;
  SwitchAsic sw(sim, asic_config);

  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;

  P4xosSwitchProgram leader(P4xosRole::kLeader, group, 1, 200);
  P4xosSwitchProgram acceptor0(P4xosRole::kAcceptor, group, 0, 10);
  P4xosSwitchProgram acceptor1(P4xosRole::kAcceptor, group, 1, 11);
  P4xosSwitchProgram acceptor2(P4xosRole::kAcceptor, group, 2, 12);
  sw.LoadProgram(&leader);
  sw.LoadProgram(&acceptor0);
  sw.LoadProgram(&acceptor1);
  sw.LoadProgram(&acceptor2);

  struct Collector : PacketSink {
    void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
    std::string SinkName() const override { return "side"; }
    std::vector<Packet> packets;
  } client;
  ServerConfig learner_config;
  learner_config.node = 30;
  learner_config.stack_rx_cost = Nanoseconds(100);
  Server learner_host(sim, learner_config);
  SoftwareLearner learner(group);
  learner_host.BindApp(&learner);

  topo.ConnectToSwitch(&sw, &client, 100);
  Link* learner_link = topo.ConnectToSwitch(&sw, &learner_host, 30);
  learner_host.SetUplink(learner_link);
  // The leader service and acceptor addresses terminate inside the switch,
  // so no routes are needed for them.

  for (int i = 0; i < 10; ++i) {
    PaxosMessage request;
    request.type = PaxosMsgType::kClientRequest;
    request.value = 1000 + static_cast<PaxosValue>(i);
    request.client = 100;
    sw.Receive(MakePaxosPacket(100, 200, request, sim.Now()));
  }
  sim.Run();

  EXPECT_EQ(learner.state().delivered_count(), 10u);
  EXPECT_EQ(client.packets.size(), 10u);  // One response per request.
  EXPECT_GT(leader.messages_handled(), 0u);
  EXPECT_GT(acceptor0.messages_handled(), 0u);
  EXPECT_GT(sw.consumed_in_pipeline(), 0u);
}

// ---- Park policies (§9.2) ----

struct ParkHarness {
  ParkHarness() : sim(1), fpga(sim, Config()) {
    fpga.InstallApp(&lake);
  }
  static FpgaNicConfig Config() {
    FpgaNicConfig config;
    config.host_node = 1;
    config.device_node = 50;
    return config;
  }
  Simulation sim;
  LakeCache lake{LakeConfig{}};
  FpgaNic fpga;
};

TEST(ParkPolicyTest, IdlePowerOrdering) {
  // Deeper parking saves more: reprogram < gated park < keep warm.
  double watts[3];
  const ParkPolicy policies[] = {ParkPolicy::kReprogram, ParkPolicy::kGatedPark,
                                 ParkPolicy::kKeepWarm};
  for (int i = 0; i < 3; ++i) {
    ParkHarness h;
    StateTransferMigrator migrator(
        h.sim, h.fpga, StateTransferMigrator::Options::FromPolicy(policies[i]));
    watts[i] = h.fpga.PowerWatts();
  }
  EXPECT_LT(watts[0], watts[1]);
  EXPECT_LT(watts[1], watts[2]);
  EXPECT_STREQ(ParkPolicyName(ParkPolicy::kGatedPark), "gated-park");
}

TEST(ParkPolicyTest, KeepWarmPreservesCaches) {
  ParkHarness h;
  StateTransferMigrator migrator(
      h.sim, h.fpga, StateTransferMigrator::Options::FromPolicy(ParkPolicy::kKeepWarm));
  h.lake.WarmFill(0, 50, 64);
  migrator.ShiftToNetwork();
  migrator.ShiftToHost();
  EXPECT_EQ(h.lake.l1().size(), 50u);  // No reset: instant warm next shift.
}

TEST(ParkPolicyTest, GatedParkColdCaches) {
  ParkHarness h;
  StateTransferMigrator migrator(
      h.sim, h.fpga, StateTransferMigrator::Options::FromPolicy(ParkPolicy::kGatedPark));
  h.lake.WarmFill(0, 50, 64);
  migrator.ShiftToNetwork();
  migrator.ShiftToHost();  // Reset on park: caches cleared.
  EXPECT_EQ(h.lake.l1().size(), 0u);
}

TEST(ParkPolicyTest, ReprogramHaltsTraffic) {
  ParkHarness h;
  StateTransferMigrator migrator(
      h.sim, h.fpga,
      StateTransferMigrator::Options::FromPolicy(ParkPolicy::kReprogram, Milliseconds(40)));
  struct Collector : PacketSink {
    void Receive(Packet) override { ++count; }
    std::string SinkName() const override { return "host"; }
    int count = 0;
  } host;
  Topology topo(h.sim);
  Link* host_link = topo.Connect(&h.fpga, &host);
  h.fpga.SetHostLink(host_link);

  migrator.ShiftToNetwork();
  EXPECT_TRUE(h.fpga.reprogramming());
  // Traffic during the halt is dropped ("a momentary traffic halt").
  Packet raw;
  raw.src = 100;
  raw.dst = 1;
  h.fpga.Receive(raw);
  EXPECT_EQ(h.fpga.dropped(), 1u);
  h.sim.RunUntil(Milliseconds(50));
  EXPECT_FALSE(h.fpga.reprogramming());
  EXPECT_TRUE(h.fpga.app_active());
}

}  // namespace
}  // namespace incod
