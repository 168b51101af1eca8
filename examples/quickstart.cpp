// Quickstart: measure the power/performance trade-off of in-network
// computing with the declarative scenario API.
//
// Builds the paper's KVS testbed twice from struct-literal ScenarioSpecs —
// memcached in software, then LaKe on the FPGA NIC, both created by name
// ("kvs") through the AppRegistry — drives both with the same declarative
// workload, and prints throughput, latency and wall power side by side.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "src/power/cpu_power.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/scenario_spec.h"
#include "src/sim/simulation.h"

using namespace incod;

namespace {

struct Result {
  double kqps;
  double p50_us;
  double watts;
};

Result Run(bool offload, double offered_pps) {
  // 1. A deterministic simulation.
  Simulation sim(/*seed=*/42);

  // 2. The scenario, declaratively: one member (host, ingress device, app
  //    by registry name) and the workload. Without a ToR, the member's
  //    ingress device takes the client link: the paper's §4.1 chain.
  //    ScenarioTestbed wires the topology and attaches a wall power meter
  //    exactly as in the paper's setup.
  ScenarioSpec spec;
  spec.name = offload ? "kvs-lake" : "kvs-software";
  ScenarioMemberSpec& kvs = spec.members.emplace_back();
  kvs.host.config.name = "i7-server";
  kvs.host.config.node = 1;
  kvs.host.config.num_cores = 4;
  kvs.host.config.power_curve = I7MemcachedCurve();
  kvs.host.apps = {"kvs"};  // memcached, via the AppRegistry.
  // The paper's link calibration (same as the KVS testbed).
  spec.client_link = TestbedBuilder::TenGigLink(Nanoseconds(100));
  kvs.target.pcie = TestbedBuilder::PcieLink(Nanoseconds(2500));
  if (offload) {
    kvs.target.kind = ScenarioTargetKind::kFpgaNic;
    kvs.target.name = "netfpga-lake";
    kvs.target.device_node = 50;
    kvs.target.app = "kvs";  // Same name, FPGA placement: LaKe.
  } else {
    kvs.target.kind = ScenarioTargetKind::kConventionalNic;
  }
  spec.workload.kind = ScenarioWorkloadSpec::Kind::kKvUniformGets;
  spec.workload.rate_per_second = offered_pps;
  spec.workload.keyspace = 1000;

  ScenarioTestbed testbed(sim, spec);

  // 3. Warm stores so GETs hit (the workload client is already running).
  PrefillKvsMember(testbed.member(0), 1000, 64);

  // 4. Warm up, then measure a steady-state window.
  sim.RunUntil(Milliseconds(100));
  LoadClient& client = *testbed.client();
  client.ResetStats();
  const SimTime start = sim.Now();
  sim.RunUntil(start + Milliseconds(200));

  return Result{
      static_cast<double>(client.received()) / 0.2 / 1000.0,
      ToMicroseconds(static_cast<SimDuration>(client.latency().P50())),
      testbed.meter().MeanWatts(start, sim.Now()),
  };
}

}  // namespace

int main() {
  std::printf("offered    | memcached (software)        | LaKe (in-network)\n");
  std::printf("kqps       | kqps   p50us   watts        | kqps   p50us   watts\n");
  for (double offered : {50e3, 150e3, 400e3, 800e3}) {
    const Result sw = Run(/*offload=*/false, offered);
    const Result hw = Run(/*offload=*/true, offered);
    std::printf("%-10.0f | %-6.1f %-7.2f %-12.1f | %-6.1f %-7.2f %-6.1f\n",
                offered / 1000.0, sw.kqps, sw.p50_us, sw.watts, hw.kqps, hw.p50_us,
                hw.watts);
  }
  std::printf(
      "\nThe paper's result in miniature: the software server is cheaper at\n"
      "idle, but past ~80 kqps the FPGA serves the same load at lower power\n"
      "and ~10x lower latency — which is why placement should be decided\n"
      "on demand (see examples/kvs_ondemand and examples/paxos_migration).\n");
  return 0;
}
