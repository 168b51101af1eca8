// Tests for the FPGA NIC, switch ASIC, conventional NICs and SmartNIC data.
#include <gtest/gtest.h>

#include <memory>

#include "src/app/app_registry.h"
#include "src/device/conventional_nic.h"
#include "src/device/fpga_nic.h"
#include "src/device/smartnic.h"
#include "src/device/switch_asic.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/lake.h"
#include "src/net/topology.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

class CollectorSink : public PacketSink {
 public:
  void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
  std::string SinkName() const override { return "collector"; }
  std::vector<Packet> packets;
};

// ---- The shared offload-NIC datapath, FPGA NIC and SmartNIC alike ----

template <typename Nic>
struct OffloadBoard;

template <>
struct OffloadBoard<FpgaNic> {
  static constexpr PlacementKind kPlacement = PlacementKind::kFpgaNic;
  static std::unique_ptr<FpgaNic> Make(Simulation& sim) {
    FpgaNicConfig config;
    config.host_node = 1;
    config.device_node = 50;
    return std::make_unique<FpgaNic>(sim, config);
  }
};

template <>
struct OffloadBoard<SmartNic> {
  static constexpr PlacementKind kPlacement = PlacementKind::kSmartNic;
  static std::unique_ptr<SmartNic> Make(Simulation& sim) {
    SmartNicDeviceConfig config;
    config.host_node = 1;
    config.device_node = 50;
    return std::make_unique<SmartNic>(sim, SmartNicPresetByName("accelnet-fpga"), config);
  }
};

// One board running the registry's "kvs" offload (LaKe) between a network
// collector and a host collector, both links PFC-capable.
template <typename Nic>
class OffloadNicDatapathTest : public ::testing::Test {
 protected:
  OffloadNicDatapathTest() : topo(sim), nic(OffloadBoard<Nic>::Make(sim)) {
    Link::Config pfc;
    pfc.flow.pfc = true;
    net_link = topo.Connect(&network, nic.get(), pfc, "net");
    host_link = topo.Connect(nic.get(), &host, pfc, "host");
    nic->SetNetworkLink(net_link);
    nic->SetHostLink(host_link);
    app = AppRegistry::Global().Create("kvs", OffloadBoard<Nic>::kPlacement,
                                       AppFactoryEnv{});
    nic->InstallApp(app.get());
  }

  Packet Get(uint64_t key) {
    return MakeKvRequestPacket(/*src=*/100, /*dst=*/1, KvRequest{KvOp::kGet, key, 0},
                               /*id=*/key, sim.Now());
  }
  // The host's GET-hit reply for `key`, on its way out through the board.
  Packet HostReply(uint64_t key) {
    return MakeKvResponsePacket(/*src=*/1, /*dst=*/100,
                                KvResponse{KvOp::kGet, key, true, 64}, /*id=*/key,
                                sim.Now());
  }

  Simulation sim;
  Topology topo;
  CollectorSink network;
  CollectorSink host;
  std::unique_ptr<Nic> nic;
  std::unique_ptr<App> app;
  Link* net_link = nullptr;
  Link* host_link = nullptr;
};

using OffloadBoards = ::testing::Types<FpgaNic, SmartNic>;
TYPED_TEST_SUITE(OffloadNicDatapathTest, OffloadBoards);

TYPED_TEST(OffloadNicDatapathTest, InactivePassesClaimedTrafficToHost) {
  this->nic->Receive(this->Get(1));
  this->sim.Run();
  EXPECT_TRUE(this->network.packets.empty());
  ASSERT_EQ(this->host.packets.size(), 1u);
  EXPECT_EQ(this->nic->delivered_to_host(), 1u);
  // Classifier-visible even while parked: the §9.1 controller signal.
  EXPECT_EQ(this->nic->app_ingress_packets(), 1u);
  EXPECT_EQ(this->nic->processed_in_hardware(), 0u);
}

TYPED_TEST(OffloadNicDatapathTest, ReprogrammingDropsBothDirections) {
  // Parked while the bitstream changes (§9.2), then active: the board drops
  // traffic either way.
  this->nic->SetReprogramming(true);
  uint64_t expected_drops = 0;
  for (bool active : {false, true}) {
    this->nic->SetAppActive(active);
    this->nic->Receive(this->Get(1));  // Network ingress.
    this->sim.Run();
    EXPECT_TRUE(this->host.packets.empty()) << "active=" << active;
    EXPECT_EQ(this->nic->dropped(), ++expected_drops) << "active=" << active;
    this->nic->Receive(this->HostReply(1));  // Host egress.
    this->sim.Run();
    EXPECT_TRUE(this->network.packets.empty()) << "active=" << active;
    EXPECT_EQ(this->nic->dropped(), ++expected_drops) << "active=" << active;
  }
  EXPECT_EQ(this->nic->processed_in_hardware(), 0u);
  this->nic->SetReprogramming(false);
  this->nic->Receive(this->Get(1));  // Traffic flows again: a miss, punted.
  this->sim.Run();
  EXPECT_EQ(this->host.packets.size(), 1u);
}

TYPED_TEST(OffloadNicDatapathTest, RelaysHostCongestionPauseOutTheNetLink) {
  auto* nic = this->nic.get();
  nic->OnLinkCongestion(this->host_link, true);
  this->sim.Run();
  EXPECT_EQ(nic->pause_propagations(), 1u);
  EXPECT_TRUE(this->net_link->paused(nic));
  nic->OnLinkCongestion(this->host_link, false);
  this->sim.Run();
  EXPECT_FALSE(this->net_link->paused(nic));
  EXPECT_EQ(nic->pause_propagations(), 1u);  // Resumes are not propagations.
  // Network-side congestion is the switch's problem: nothing is relayed.
  nic->OnLinkCongestion(this->net_link, true);
  this->sim.Run();
  EXPECT_EQ(nic->pause_propagations(), 1u);
}

TYPED_TEST(OffloadNicDatapathTest, KilledEngineDropsClaimedAndInFlightWork) {
  this->nic->SetAppActive(true);
  // Claimed at t=0; the engine dies at 500 ns, after admission (past the
  // FPGA's 300 ns classifier hop) and before the completion fires.
  this->nic->Receive(this->Get(1));
  this->sim.ScheduleAt(Nanoseconds(500), [this] { this->nic->KillEngine(); });
  this->sim.Run();
  EXPECT_EQ(this->nic->dead_dropped(), 1u);
  EXPECT_EQ(this->nic->processed_in_hardware(), 0u);
  // Claimed traffic after death is lost, never punted; the rest still
  // passes through.
  this->nic->Receive(this->Get(2));
  Packet raw = this->Get(3);
  raw.proto = AppProto::kRaw;
  this->nic->Receive(raw);
  this->sim.Run();
  EXPECT_EQ(this->nic->dead_dropped(), 2u);
  EXPECT_EQ(this->nic->processed_in_hardware(), 0u);
  ASSERT_EQ(this->host.packets.size(), 1u);
  EXPECT_EQ(this->host.packets[0].proto, AppProto::kRaw);
  EXPECT_TRUE(this->network.packets.empty());
  EXPECT_EQ(this->nic->app_ingress_packets(), 2u);  // The signal survives.
}

TYPED_TEST(OffloadNicDatapathTest, HostEgressObservedOnlyWhileActive) {
  // Inactive: the host's reply goes out unobserved, so the next GET misses.
  this->nic->Receive(this->HostReply(7));
  this->sim.Run();
  ASSERT_EQ(this->network.packets.size(), 1u);
  this->nic->SetAppActive(true);
  this->nic->Receive(this->Get(7));
  this->sim.Run();
  ASSERT_EQ(this->host.packets.size(), 1u);  // Miss: punted.
  // Active: the reply fills the cache on its way out; the next GET hits.
  this->nic->Receive(this->HostReply(7));
  this->sim.Run();
  ASSERT_EQ(this->network.packets.size(), 2u);
  this->nic->Receive(this->Get(7));
  this->sim.Run();
  EXPECT_EQ(this->host.packets.size(), 1u);
  ASSERT_EQ(this->network.packets.size(), 3u);
  EXPECT_TRUE(PayloadAs<KvResponse>(this->network.packets[2]).hit);
  EXPECT_EQ(this->network.packets[2].src, 50u);  // From the board's address.
  EXPECT_EQ(this->nic->processed_in_hardware(), 2u);
}

// Minimal FPGA app that consumes matching packets and echoes to network.
class EchoFpgaApp : public App {
 public:
  AppProto proto() const override { return AppProto::kKv; }
  std::string AppName() const override { return "echo-hw"; }
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kFpgaNic;
  }
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile;
    profile.power_modules = {MakeModuleSpec("logic", 2.0, 0.6, 1.0),
                             MakeModuleSpec("dram_if", 4.8, 1.0, 0.6)};
    profile.dynamic_watts_at_capacity = 1.0;
    profile.pipeline.workers = 2;
    profile.pipeline.worker_service = Nanoseconds(500);
    profile.pipeline.pipeline_latency = Microseconds(1);
    profile.pipeline.input_queue_capacity = 8;
    return profile;
  }
  void HandlePacket(AppContext& ctx, Packet packet) override {
    ++processed;
    Packet reply;
    reply.src = ctx.self_node();
    reply.dst = packet.src;
    reply.proto = AppProto::kKv;
    ctx.Reply(reply);
  }
  int processed = 0;
};

struct FpgaHarness {
  FpgaHarness(bool standalone = false, bool with_host = true)
      : sim(), topo(sim), fpga(sim, MakeConfig(standalone)) {
    fpga.InstallApp(&app);
    net_link = topo.Connect(&net_side, &fpga);
    fpga.SetNetworkLink(net_link);
    if (with_host) {
      host_link = topo.Connect(&fpga, &host_side);
      fpga.SetHostLink(host_link);
    }
  }
  static FpgaNicConfig MakeConfig(bool standalone) {
    FpgaNicConfig config;
    config.host_node = 1;
    config.device_node = 50;
    config.standalone = standalone;
    return config;
  }
  Packet KvPacket(NodeId src, NodeId dst) {
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.proto = AppProto::kKv;
    return pkt;
  }
  Simulation sim;
  Topology topo;
  CollectorSink net_side;
  CollectorSink host_side;
  EchoFpgaApp app;
  FpgaNic fpga;
  Link* net_link;
  Link* host_link = nullptr;
};

TEST(FpgaNicTest, ActiveProcessesMatchingTraffic) {
  FpgaHarness h;
  h.fpga.SetAppActive(true);
  h.fpga.Receive(h.KvPacket(100, 1));
  h.sim.Run();
  EXPECT_EQ(h.app.processed, 1);
  EXPECT_EQ(h.net_side.packets.size(), 1u);
  EXPECT_TRUE(h.host_side.packets.empty());
  EXPECT_EQ(h.fpga.processed_in_hardware(), 1u);
}

TEST(FpgaNicTest, NonMatchingTrafficGoesToHostEvenWhenActive) {
  FpgaHarness h;
  h.fpga.SetAppActive(true);
  Packet raw = h.KvPacket(100, 1);
  raw.proto = AppProto::kRaw;
  h.fpga.Receive(raw);
  h.sim.Run();
  EXPECT_EQ(h.host_side.packets.size(), 1u);
  EXPECT_EQ(h.app.processed, 0);
}

TEST(FpgaNicTest, HostEgressForwardsToNetwork) {
  FpgaHarness h;
  h.fpga.Receive(h.KvPacket(1, 100));  // src == host node.
  h.sim.Run();
  EXPECT_EQ(h.net_side.packets.size(), 1u);
}

TEST(FpgaNicTest, AppIngressCountedEvenWhenInactive) {
  FpgaHarness h;
  h.fpga.SetAppActive(false);
  h.fpga.Receive(h.KvPacket(100, 1));
  h.fpga.Receive(h.KvPacket(100, 1));
  h.sim.Run();
  EXPECT_EQ(h.fpga.app_ingress_packets(), 2u);
}

TEST(FpgaNicTest, ReferenceNicPowerIsShellPlusPcie) {
  Simulation sim;
  FpgaNicConfig config;
  FpgaNic bare(sim, config);  // No app installed: the reference NIC.
  EXPECT_DOUBLE_EQ(bare.PowerWatts(), kFpgaShellWatts + kFpgaPcieWatts);
}

TEST(FpgaNicTest, PowerStatesFollowGatingControls) {
  FpgaHarness h;
  const double idle = h.fpga.PowerWatts();  // 11 + 2 + 4.8 = 17.8.
  EXPECT_NEAR(idle, 17.8, 1e-9);
  h.fpga.SetClockGating(true);  // logic 2.0 -> 1.2.
  EXPECT_NEAR(h.fpga.PowerWatts(), 17.0, 1e-9);
  h.fpga.SetMemoryReset(true);  // dram 4.8 -> 2.88.
  EXPECT_NEAR(h.fpga.PowerWatts(), 15.08, 1e-9);
  // Activating restores everything to active draw.
  h.fpga.SetAppActive(true);
  EXPECT_NEAR(h.fpga.PowerWatts(), 17.8, 1e-9);
}

TEST(FpgaNicTest, PowerGatedModuleStaysOff) {
  FpgaHarness h;
  h.fpga.PowerGateModule("dram_if");
  EXPECT_NEAR(h.fpga.PowerWatts(), 13.0, 1e-9);
  h.fpga.SetAppActive(true);  // Gated module must not wake.
  EXPECT_NEAR(h.fpga.PowerWatts(), 13.0, 1e-9);
}

TEST(FpgaNicTest, StandalonePowerIncludesPsuOverhead) {
  FpgaHarness inserver(/*standalone=*/false, /*with_host=*/false);
  FpgaHarness standalone(/*standalone=*/true, /*with_host=*/false);
  EXPECT_GT(standalone.fpga.PowerWatts(), inserver.fpga.PowerWatts() + 2.0);
}

TEST(FpgaNicTest, StandaloneDropsHostTraffic) {
  FpgaHarness h(/*standalone=*/true, /*with_host=*/false);
  h.fpga.SetAppActive(true);
  Packet raw = h.KvPacket(100, 1);
  raw.proto = AppProto::kRaw;
  h.fpga.Receive(raw);
  h.sim.Run();
  EXPECT_EQ(h.fpga.dropped(), 1u);
}

TEST(FpgaNicTest, PipelineDropsWhenOverloaded) {
  FpgaHarness h;
  h.fpga.SetAppActive(true);
  // 2 workers x 500 ns = 4 Mpps capacity; queue 8. Blast 100 at once.
  for (int i = 0; i < 100; ++i) {
    h.fpga.Receive(h.KvPacket(100, 1));
  }
  h.sim.Run();
  EXPECT_GT(h.fpga.dropped(), 0u);
  EXPECT_LT(h.app.processed, 100);
}

TEST(FpgaNicTest, MemoryResetNotifiesApp) {
  struct ResetProbeApp : EchoFpgaApp {
    void OnMemoryReset() override { ++resets; }
    int resets = 0;
  };
  Simulation sim;
  Topology topo(sim);
  FpgaNicConfig config;
  FpgaNic fpga(sim, config);
  ResetProbeApp app;
  fpga.InstallApp(&app);
  fpga.SetMemoryReset(true);
  fpga.SetMemoryReset(true);  // Idempotent: only the edge notifies.
  EXPECT_EQ(app.resets, 1);
  fpga.SetMemoryReset(false);
  fpga.SetMemoryReset(true);
  EXPECT_EQ(app.resets, 2);
}

TEST(FpgaNicTest, SecondAppInstallRejected) {
  Simulation sim;
  FpgaNic fpga(sim, FpgaNicConfig{});
  EchoFpgaApp a;
  EchoFpgaApp b;
  fpga.InstallApp(&a);
  EXPECT_THROW(fpga.InstallApp(&b), std::logic_error);
  EXPECT_THROW(FpgaNic(sim, FpgaNicConfig{}).SetAppActive(true), std::logic_error);

  // A rejected install leaves the board untouched: no app to activate, no
  // half-built engine behind the classifier.
  struct NoWorkerApp : EchoFpgaApp {
    OffloadPlacementProfile OffloadProfile() const override {
      OffloadPlacementProfile profile = EchoFpgaApp::OffloadProfile();
      profile.pipeline.workers = 0;
      return profile;
    }
  };
  FpgaNic bare(sim, FpgaNicConfig{});
  NoWorkerApp broken;
  EXPECT_THROW(bare.InstallApp(&broken), std::invalid_argument);
  EXPECT_EQ(bare.app(), nullptr);
  EXPECT_EQ(broken.context(), nullptr);
  EXPECT_THROW(bare.SetAppActive(true), std::logic_error);
  // A power module that repeats a name, its own or the shell's, is rejected
  // before anything reaches the ledger.
  struct DuplicateModuleApp : EchoFpgaApp {
    explicit DuplicateModuleApp(std::string repeated) : repeated_(std::move(repeated)) {}
    OffloadPlacementProfile OffloadProfile() const override {
      OffloadPlacementProfile profile = EchoFpgaApp::OffloadProfile();
      profile.power_modules.push_back(MakeModuleSpec(repeated_, 1.0, 0.5, 0.5));
      return profile;
    }
    std::string repeated_;
  };
  const double bare_watts = bare.PowerWatts();
  for (const char* repeated : {"logic", "shell"}) {
    DuplicateModuleApp duplicate(repeated);
    EXPECT_THROW(bare.InstallApp(&duplicate), std::invalid_argument) << repeated;
    EXPECT_EQ(bare.app(), nullptr);
    EXPECT_EQ(duplicate.context(), nullptr);
    EXPECT_DOUBLE_EQ(bare.PowerWatts(), bare_watts);
    EXPECT_THROW(bare.SetAppActive(true), std::logic_error);
  }
  bare.InstallApp(&b);
  EXPECT_EQ(bare.app(), &b);
}

// ---- Switch ASIC ----

TEST(SwitchAsicTest, IdlePowerIsSameWithAndWithoutPrograms) {
  Simulation sim;
  SwitchAsic sw(sim, SwitchAsicConfig{});
  const double idle = sw.PowerWatts();
  DiagProgram diag;
  sw.LoadProgram(&diag);
  EXPECT_DOUBLE_EQ(sw.PowerWatts(), idle);  // §6: identical at idle.
}

TEST(SwitchAsicTest, NormalizedIdleFraction) {
  Simulation sim;
  SwitchAsicConfig config;
  SwitchAsic sw(sim, config);
  EXPECT_NEAR(sw.NormalizedPower(), config.idle_power_fraction, 1e-9);
}

TEST(SwitchAsicTest, LineRatePpsMatchesConfig) {
  Simulation sim;
  SwitchAsic sw(sim, SwitchAsicConfig{});
  // 32 x 40G = 1.28 Tbps at 64 B -> 2.5 Gpps (§6).
  EXPECT_NEAR(sw.LineRatePps(), 2.5e9, 1e7);
}

TEST(SwitchAsicTest, MinMaxSpreadUnder20Percent) {
  SwitchAsicConfig config;
  // At full utilization (without programs) power is Pmax; idle 0.84 Pmax.
  EXPECT_GT(config.idle_power_fraction, 0.8);
}

TEST(SwitchAsicTest, ProgramOverheadScalesWithLoad) {
  Simulation sim;
  Topology topo(sim);
  SwitchAsicConfig config;
  config.rate_window = Milliseconds(1);
  SwitchAsic sw(sim, config);
  CollectorSink host;
  topo.ConnectToSwitch(&sw, &host, 1);
  DiagProgram diag;
  sw.LoadProgram(&diag);
  // Push some traffic through to raise the observed rate.
  for (int i = 0; i < 1000; ++i) {
    Packet pkt;
    pkt.src = 9;
    pkt.dst = 1;
    sw.Receive(pkt);
  }
  const double with_diag = sw.PowerWatts();
  const double forwarding_only = sw.ForwardingOnlyWatts();
  EXPECT_GT(with_diag, forwarding_only);
  // At utilization u the diag overhead is 4.8 % of base at most.
  EXPECT_LE(with_diag / forwarding_only, 1.048 + 1e-9);
}

TEST(SwitchAsicTest, UnloadProgramRestoresPower) {
  Simulation sim;
  SwitchAsic sw(sim, SwitchAsicConfig{});
  DiagProgram diag;
  sw.LoadProgram(&diag);
  EXPECT_EQ(sw.LoadedPrograms().size(), 1u);
  sw.UnloadProgram("diag.p4");
  EXPECT_TRUE(sw.LoadedPrograms().empty());
  EXPECT_THROW(sw.LoadProgram(nullptr), std::invalid_argument);
}

// ---- Conventional NIC ----

TEST(ConventionalNicTest, PassesThroughBothDirections) {
  Simulation sim;
  Topology topo(sim);
  ConventionalNic nic(sim, MellanoxConnectX3Config(1));
  CollectorSink net;
  CollectorSink host;
  Link* net_link = topo.Connect(&net, &nic);
  Link* host_link = topo.Connect(&nic, &host);
  nic.SetNetworkLink(net_link);
  nic.SetHostLink(host_link);
  Packet in;
  in.src = 100;
  in.dst = 1;
  nic.Receive(in);
  Packet out;
  out.src = 1;
  out.dst = 100;
  nic.Receive(out);
  sim.Run();
  EXPECT_EQ(host.packets.size(), 1u);
  EXPECT_EQ(net.packets.size(), 1u);
}

TEST(ConventionalNicTest, IntelNicCapsPacketRate) {
  Simulation sim;
  Topology topo(sim);
  ConventionalNic nic(sim, IntelX520Config(1));
  CollectorSink host;
  Link* host_link = topo.Connect(&nic, &host);
  nic.SetHostLink(host_link);
  // Blast 10000 packets instantaneously; the 600 Kpps cap + 128-slot buffer
  // forces drops.
  for (int i = 0; i < 10000; ++i) {
    Packet pkt;
    pkt.src = 100;
    pkt.dst = 1;
    nic.Receive(pkt);
  }
  sim.Run();
  EXPECT_GT(nic.dropped(), 0u);
  EXPECT_LT(host.packets.size(), 10000u);
}

TEST(ConventionalNicTest, PresetsDiffer) {
  const auto mellanox = MellanoxConnectX3Config(1);
  const auto intel = IntelX520Config(1);
  EXPECT_GT(mellanox.watts, intel.watts);  // §4.2: Intel more efficient...
  EXPECT_EQ(mellanox.max_pps, 0);          // ...but Mellanox sustains more.
  EXPECT_GT(intel.max_pps, 0);
}

// ---- SmartNIC presets ----

TEST(SmartNicTest, PresetsCoverAllArchitectures) {
  const auto presets = StandardSmartNicPresets();
  ASSERT_EQ(presets.size(), 4u);
  bool fpga = false;
  bool soc = false;
  for (const auto& p : presets) {
    EXPECT_LE(p.max_watts, 25.0);  // §10: PCIe slot budget.
    EXPECT_GT(OpsPerWattAtPeak(p), 1e6);  // "millions of operations per Watt".
    if (p.arch == SmartNicArch::kFpga) {
      fpga = true;
      // AccelNet: 17-19 W, ~4 Mpps/W.
      EXPECT_NEAR(OpsPerWattAtPeak(p) / 1e6, 4.0, 0.5);
    }
    if (p.arch == SmartNicArch::kSoc) {
      soc = true;
      EXPECT_FALSE(p.scalable_resources);  // The §10 "resource wall".
    }
  }
  EXPECT_TRUE(fpga);
  EXPECT_TRUE(soc);
  EXPECT_STREQ(SmartNicArchName(SmartNicArch::kAsicPlusFpga), "asic+fpga");
}

// Pin the preset efficiency figures. OpsPerWattAtPeak is what the placement
// advisor ranks §10 boards by, and the AccelNet anchor is the paper's one
// hard number ("close to 4 Mpps/W"): preset edits must not drift silently.
TEST(SmartNicTest, OpsPerWattPinnedAgainstPaperFigures) {
  for (const auto& p : StandardSmartNicPresets()) {
    EXPECT_DOUBLE_EQ(OpsPerWattAtPeak(p), p.peak_mpps * 1e6 / p.max_watts) << p.name;
  }
  const SmartNicPreset accelnet = SmartNicPresetByName("accelnet-fpga");
  // 72 Mpps on a 19 W board: 3.789... Mpps/W, the §10 "close to 4 Mpps/W".
  EXPECT_DOUBLE_EQ(OpsPerWattAtPeak(accelnet), 72.0e6 / 19.0);
  EXPECT_NEAR(OpsPerWattAtPeak(accelnet) / 1e6, 4.0, 0.25);
  EXPECT_DOUBLE_EQ(OpsPerWattAtPeak(SmartNicPresetByName("agilio-asic")),
                   120.0e6 / 25.0);
  EXPECT_DOUBLE_EQ(OpsPerWattAtPeak(SmartNicPresetByName("innova-asic+fpga")),
                   90.0e6 / 25.0);
  EXPECT_DOUBLE_EQ(OpsPerWattAtPeak(SmartNicPresetByName("bluefield-soc")),
                   30.0e6 / 25.0);
  EXPECT_THROW(SmartNicPresetByName("no-such-board"), std::invalid_argument);
}

// ---- SmartNIC as an application substrate (§10 placement) ----

struct SmartNicAppHarness {
  explicit SmartNicAppHarness(const std::string& preset_name = "accelnet-fpga")
      : nic(sim, SmartNicPresetByName(preset_name), Config()),
        net_link(sim, Link::Config{}),
        host_link(sim, Link::Config{}) {
    net_link.Connect(&nic, &network);
    host_link.Connect(&nic, &host);
    nic.SetNetworkLink(&net_link);
    nic.SetHostLink(&host_link);
  }

  static SmartNicDeviceConfig Config() {
    SmartNicDeviceConfig config;
    config.host_node = 1;
    config.device_node = 50;
    return config;
  }

  struct Collector : PacketSink {
    void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
    std::string SinkName() const override { return "collector"; }
    std::vector<Packet> packets;
  };

  Packet Get(uint64_t key) {
    return MakeKvRequestPacket(/*src=*/100, /*dst=*/1, KvRequest{KvOp::kGet, key, 0},
                               /*id=*/key, sim.Now());
  }

  Simulation sim;
  Collector network;
  Collector host;
  SmartNic nic;
  Link net_link;
  Link host_link;
};

// LaKe advertising a chosen SmartNIC profile in place of its own.
class ProfiledLake : public LakeCache {
 public:
  explicit ProfiledLake(SmartNicPlacementProfile profile) : profile_(profile) {}
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile = LakeCache::OffloadProfile();
    profile.smartnic = profile_;
    return profile;
  }

 private:
  SmartNicPlacementProfile profile_;
};

TEST(SmartNicHostingTest, HostedAppServesHitsAndPuntsMisses) {
  SmartNicAppHarness h;
  LakeConfig lake_config;
  lake_config.l1_entries = 64;
  LakeCache lake(lake_config);
  h.nic.InstallApp(&lake);
  ASSERT_EQ(h.nic.app(), &lake);  // The board hosts the implementation itself.
  lake.WarmFill(0, 10, 64);
  h.nic.SetAppActive(true);

  h.nic.Receive(h.Get(3));    // Hit: answered by the engine.
  h.nic.Receive(h.Get(999));  // Miss: punted to the host.
  h.sim.RunUntil(Milliseconds(1));

  ASSERT_EQ(h.network.packets.size(), 1u);
  const KvResponse& resp = PayloadAs<KvResponse>(h.network.packets[0]);
  EXPECT_TRUE(resp.hit);
  EXPECT_EQ(resp.key, 3u);
  EXPECT_EQ(h.network.packets[0].src, 50u);  // Replies carry the board address.
  ASSERT_EQ(h.host.packets.size(), 1u);
  EXPECT_EQ(PayloadAs<KvRequest>(h.host.packets[0]).key, 999u);
  EXPECT_EQ(h.nic.processed_in_hardware(), 2u);
  EXPECT_EQ(h.nic.app_ingress_packets(), 2u);
}

TEST(SmartNicHostingTest, PerArchProfileScalesTheEngineCeiling) {
  SmartNicPlacementProfile profile;
  profile.asic_mpps_fraction = 0.5;
  SmartNicAppHarness fpga_board("accelnet-fpga");
  ProfiledLake on_fpga(profile);
  fpga_board.nic.InstallApp(&on_fpga);
  EXPECT_DOUBLE_EQ(fpga_board.nic.OffloadCapacityPps(), 72e6);

  SmartNicAppHarness asic_board("agilio-asic");
  ProfiledLake on_asic(profile);
  asic_board.nic.InstallApp(&on_asic);
  EXPECT_DOUBLE_EQ(asic_board.nic.OffloadCapacityPps(), 0.5 * 120e6);
}

TEST(SmartNicHostingTest, SocResourceWallCapsConcurrentApps) {
  // BlueField-class SoC: 2 engine slots. A two-slot KVS firmware fills the
  // board; the next app hits the §10 resource wall loudly.
  SmartNicAppHarness soc("bluefield-soc");
  EXPECT_EQ(soc.nic.AppSlotCapacity(), 2);
  SmartNicPlacementProfile kvs_profile;
  kvs_profile.resource_slots = 2;
  ProfiledLake kvs(kvs_profile);
  soc.nic.InstallApp(&kvs);
  EXPECT_EQ(soc.nic.app_slots_used(), 2);
  ProfiledLake second(SmartNicPlacementProfile{});
  EXPECT_THROW(soc.nic.InstallApp(&second), std::invalid_argument);

  // A scalable board fits both firmwares side by side.
  SmartNicAppHarness fpga_board("accelnet-fpga");
  ProfiledLake kvs2(kvs_profile);
  ProfiledLake extra(SmartNicPlacementProfile{});
  fpga_board.nic.InstallApp(&kvs2);
  fpga_board.nic.InstallApp(&extra);
  EXPECT_EQ(fpga_board.nic.app_count(), 2u);

  // Firmware that claims no slot is rejected before the board changes.
  SmartNicPlacementProfile slotless;
  slotless.resource_slots = 0;
  ProfiledLake free_rider(slotless);
  EXPECT_THROW(fpga_board.nic.InstallApp(&free_rider), std::invalid_argument);
  EXPECT_EQ(fpga_board.nic.app_count(), 2u);
  EXPECT_EQ(fpga_board.nic.app_slots_used(), 3);
  EXPECT_EQ(free_rider.context(), nullptr);
}

TEST(SmartNicHostingTest, LateInstallOntoLiveEngineActivatesTheApp) {
  // An app installed after SetAppActive(true) must receive the same
  // activation its already-installed peers got with the transition.
  struct CountingApp : App {
    AppProto proto() const override { return AppProto::kKv; }
    std::string AppName() const override { return "counting"; }
    bool SupportsPlacement(PlacementKind p) const override {
      return p == PlacementKind::kSmartNic;
    }
    void HandlePacket(AppContext&, Packet) override {}
    void OnActivate() override { ++activations; }
    int activations = 0;
  };
  SmartNicAppHarness h;
  CountingApp early;
  h.nic.InstallApp(&early);
  h.nic.SetAppActive(true);
  CountingApp late;
  h.nic.InstallApp(&late);
  EXPECT_EQ(early.activations, 1);
  EXPECT_EQ(late.activations, 1);
}

TEST(SmartNicHostingTest, ReprogramParkWipesOnBoardState) {
  SmartNicAppHarness h("accelnet-fpga");  // Reprogrammable arch.
  LakeCache lake;
  h.nic.InstallApp(&lake);
  lake.WarmFill(0, 16, 64);
  ASSERT_GT(lake.l1().size(), 0u);
  h.nic.SetAppActive(false);
  h.nic.PowerGateParkedApp();  // Bitstream removed: on-board state is lost.
  EXPECT_EQ(lake.l1().size(), 0u);
  EXPECT_EQ(lake.l2()->size(), 0u);
}

TEST(SmartNicHostingTest, GatedParkMemoryResetWipesOnBoardState) {
  // The kGatedPark park policy holds memories in reset while the host
  // serves; entering reset must lose hosted state (the §9.2 re-warm) so a
  // later cold shift really starts cold.
  SmartNicAppHarness h;
  EXPECT_TRUE(h.nic.Traits().supports_memory_reset);
  LakeCache lake;
  h.nic.InstallApp(&lake);
  lake.WarmFill(0, 16, 64);
  h.nic.SetAppActive(false);
  h.nic.SetMemoryReset(true);
  EXPECT_TRUE(h.nic.memory_reset());
  EXPECT_EQ(lake.l1().size(), 0u);
  EXPECT_EQ(lake.l2()->size(), 0u);
  // Re-entering reset without leaving it does not re-fire the wipe hook.
  lake.WarmFill(0, 4, 64);
  h.nic.SetMemoryReset(true);
  EXPECT_EQ(lake.l1().size(), 4u);
  h.nic.SetMemoryReset(false);
  h.nic.SetMemoryReset(true);
  EXPECT_EQ(lake.l1().size(), 0u);
}

}  // namespace
}  // namespace incod
