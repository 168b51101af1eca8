// Flow-control tests: the DCQCN sender rate machine in isolation, and the
// end-to-end backpressure contract — an overloaded §4.1-chain service
// drops on queue overflow with flow control off, and converts that loss
// into pause propagation + sender slowdown with flow control on.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/control_msg.h"
#include "src/net/flow_control.h"
#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/scenarios/scenario_spec.h"
#include "src/sim/simulation.h"
#include "src/workload/client.h"

namespace incod {
namespace {

class CollectorSink : public PacketSink {
 public:
  explicit CollectorSink(Simulation* sim = nullptr, std::string name = "collector")
      : sim_(sim), name_(std::move(name)) {}

  void Receive(Packet packet) override {
    packets.push_back(packet);
    if (sim_ != nullptr) {
      arrival_times.push_back(sim_->Now());
    }
  }
  std::string SinkName() const override { return name_; }

  std::vector<Packet> packets;
  std::vector<SimTime> arrival_times;

 private:
  Simulation* sim_;
  std::string name_;
};

Packet MakeRawPacket(NodeId src, NodeId dst, uint32_t bytes = 64) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.proto = AppProto::kRaw;
  pkt.size_bytes = bytes;
  return pkt;
}

TEST(DcqcnTest, CnpMultiplicativeDecreaseAndFullRecovery) {
  Simulation sim;
  DcqcnConfig config;
  config.enabled = true;
  DcqcnRateController ctrl(sim, config);
  EXPECT_DOUBLE_EQ(ctrl.current_rate_pps(), config.line_rate_pps);

  // Alpha starts (and, with a fresh CNP, stays) at 1, so each CNP halves the
  // current rate: R <- R * (1 - alpha/2).
  ctrl.OnCnp();
  EXPECT_DOUBLE_EQ(ctrl.current_rate_pps(), config.line_rate_pps / 2);
  ctrl.OnCnp();
  EXPECT_DOUBLE_EQ(ctrl.current_rate_pps(), config.line_rate_pps / 4);
  EXPECT_EQ(ctrl.cnps_received(), 2u);

  // Recovery ticks run with no further CNPs: rate must climb monotonically
  // (sampled just past each period boundary) and land exactly at line rate,
  // after which the timer self-quiesces and the simulation drains.
  std::vector<double> samples;
  for (int i = 1; i <= 64; ++i) {
    sim.ScheduleAt(i * config.recovery_period + Microseconds(1),
                   [&ctrl, &samples] { samples.push_back(ctrl.current_rate_pps()); });
  }
  sim.Run();
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i], samples[i - 1]) << "recovery sample " << i;
  }
  EXPECT_DOUBLE_EQ(ctrl.current_rate_pps(), config.line_rate_pps);
  EXPECT_DOUBLE_EQ(ctrl.alpha() + 1.0, 1.0 + ctrl.alpha());  // Finite.
}

TEST(DcqcnTest, RepeatedCnpsFloorAtMinRate) {
  Simulation sim;
  DcqcnConfig config;
  config.enabled = true;
  DcqcnRateController ctrl(sim, config);
  for (int i = 0; i < 200; ++i) {
    ctrl.OnCnp();
  }
  EXPECT_DOUBLE_EQ(ctrl.current_rate_pps(), config.min_rate_pps);
  sim.Run();  // Even from the floor, recovery restores line rate and stops.
  EXPECT_DOUBLE_EQ(ctrl.current_rate_pps(), config.line_rate_pps);
}

TEST(DcqcnTest, PacerSpacesTransmissionsAtCurrentRate) {
  Simulation sim;
  CollectorSink a(&sim, "a");
  CollectorSink b(&sim, "b");
  Link link(sim, {}, "uplink");
  link.Connect(&a, &b);
  DcqcnConfig config;
  config.enabled = true;
  config.line_rate_pps = 1.0e5;  // 10 us between transmissions.
  DcqcnRateController ctrl(sim, config);
  ctrl.AttachUplink(&link, &a);
  for (int i = 0; i < 5; ++i) {
    ctrl.Submit(MakeRawPacket(1, 2, 1000));
  }
  sim.Run();
  ASSERT_EQ(b.packets.size(), 5u);
  for (size_t i = 1; i < b.arrival_times.size(); ++i) {
    EXPECT_EQ(b.arrival_times[i] - b.arrival_times[i - 1], Microseconds(10));
  }
  EXPECT_EQ(ctrl.paced_sent(), 5u);
  EXPECT_EQ(ctrl.backlog(), 0u);
  EXPECT_EQ(ctrl.pacer_dropped(), 0u);
}

TEST(DcqcnTest, CongestedUplinkHoldsPacerUntilResume) {
  Simulation sim;
  CollectorSink a(&sim, "a");
  CollectorSink b(&sim, "b");
  Link link(sim, {}, "uplink");
  link.Connect(&a, &b);
  DcqcnConfig config;
  config.enabled = true;
  DcqcnRateController ctrl(sim, config);
  ctrl.AttachUplink(&link, &a);
  ctrl.SetUplinkCongested(true);
  for (int i = 0; i < 3; ++i) {
    ctrl.Submit(MakeRawPacket(1, 2, 1000));
  }
  sim.ScheduleAt(Microseconds(50), [&b, &ctrl] {
    EXPECT_TRUE(b.packets.empty());  // Held: nothing left the pacer.
    EXPECT_EQ(ctrl.backlog(), 3u);
  });
  sim.ScheduleAt(Microseconds(51), [&ctrl] { ctrl.SetUplinkCongested(false); });
  sim.Run();
  ASSERT_EQ(b.packets.size(), 3u);
  EXPECT_GE(b.arrival_times.front(), Microseconds(51));
  EXPECT_EQ(ctrl.paced_sent(), 3u);
}

TEST(DcqcnTest, PacerCapacityDropsExcessSubmissions) {
  Simulation sim;
  CollectorSink a(&sim, "a");
  CollectorSink b(&sim, "b");
  Link link(sim, {}, "uplink");
  link.Connect(&a, &b);
  DcqcnConfig config;
  config.enabled = true;
  config.pacer_capacity = 2;
  DcqcnRateController ctrl(sim, config);
  ctrl.AttachUplink(&link, &a);
  ctrl.SetUplinkCongested(true);  // Hold so the queue can only grow.
  for (int i = 0; i < 5; ++i) {
    ctrl.Submit(MakeRawPacket(1, 2, 1000));
  }
  EXPECT_EQ(ctrl.backlog(), 2u);
  EXPECT_EQ(ctrl.pacer_dropped(), 3u);
}

// The end-to-end contract. One overloaded §4.1-chain KVS service
// (client -- conventional NIC -- 1-core host), driven well past host
// capacity. With flow control off the host rx queue overflows and requests
// are silently dropped; with the same offered load and flow control on, the
// host pauses its PCIe uplink, the NIC propagates the pause to the client
// link, ECN-marked arrivals trigger CNPs, and the client's DCQCN machine
// slows down — drops convert to backpressure.
ScenarioSpec OverloadedKvsSpec(bool flow_on) {
  ScenarioSpec spec;
  spec.name = flow_on ? "overload-flow" : "overload-drop";
  ScenarioMemberSpec& kvs = spec.members.emplace_back();
  kvs.host.config.name = "kvs-host";
  kvs.host.config.node = 1;
  kvs.host.config.num_cores = 1;
  kvs.host.apps = {"kvs"};
  kvs.target.kind = ScenarioTargetKind::kConventionalNic;
  kvs.target.device_node = 50;
  spec.workload.kind = ScenarioWorkloadSpec::Kind::kKvUniformGets;
  spec.workload.rate_per_second = 2.0e6;
  spec.workload.keyspace = 64;
  spec.workload.client.node = 100;
  spec.flow.enabled = flow_on;
  // Tight host watermarks so ingress pause engages well before the rx queue
  // capacity (1024) that the no-flow run overflows.
  spec.flow.host.pause_high_watermark = 64;
  spec.flow.host.pause_low_watermark = 16;
  return spec;
}

TEST(FlowScenarioTest, OverloadDropsWithoutFlowControl) {
  Simulation sim(42);
  ScenarioTestbed testbed(sim, OverloadedKvsSpec(false));
  sim.RunUntil(Milliseconds(20));
  Server* server = testbed.member(0).server;
  ASSERT_NE(server, nullptr);
  ASSERT_NE(testbed.client(), nullptr);
  EXPECT_GT(testbed.client()->received(), 0u);
  // Drop-tail regime: the 1-core host cannot absorb 2M req/s and sheds load.
  EXPECT_GT(server->requests_dropped(), 0u);
  EXPECT_EQ(server->pause_frames_sent(), 0u);
  EXPECT_EQ(server->cnps_sent(), 0u);
  EXPECT_EQ(testbed.client()->dcqcn(), nullptr);
}

TEST(FlowScenarioTest, OverloadBackpressuresWithFlowControl) {
  Simulation sim(42);
  ScenarioTestbed testbed(sim, OverloadedKvsSpec(true));
  sim.RunUntil(Milliseconds(20));
  Server* server = testbed.member(0).server;
  LoadClient* client = testbed.client();
  ASSERT_NE(server, nullptr);
  ASSERT_NE(client, nullptr);
  EXPECT_GT(client->received(), 0u);

  // No loss anywhere on the chain: the host never overflowed its rx queue
  // and the paused PCIe link deferred instead of dropping.
  EXPECT_EQ(server->requests_dropped(), 0u);
  Link* pcie = server->uplink();
  ASSERT_NE(pcie, nullptr);
  EXPECT_EQ(pcie->dropped_overflow(server), 0u);

  // The backpressure machinery actually engaged, hop by hop: host ingress
  // pause, PCIe packets deferred while paused, the NIC propagating the
  // congestion out to the client link, and CNPs driving the client's rate
  // machine below line rate.
  EXPECT_GT(server->pause_frames_sent(), 0u);
  EXPECT_GT(pcie->paused_deferred(server), 0u);
  ASSERT_NE(testbed.member(0).nic, nullptr);
  EXPECT_GT(testbed.member(0).nic->pause_propagations(), 0u);
  EXPECT_GT(server->cnps_sent(), 0u);
  ASSERT_NE(client->dcqcn(), nullptr);
  EXPECT_GT(client->dcqcn()->cnps_received(), 0u);
  EXPECT_LT(client->dcqcn()->current_rate_pps(), DcqcnConfig{}.line_rate_pps);
  EXPECT_GT(client->dcqcn()->paced_sent(), 0u);
}

}  // namespace
}  // namespace incod
