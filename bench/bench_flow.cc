// Backpressure under overload: drop-tail vs PFC + DCQCN flow control.
//
// The congestion counterpart of the Fig 3 capacity sweeps: one §4.1 chain
// (client -- NIC -- host) driven well past service capacity, run in the two
// regimes the flow-control subsystem distinguishes:
//
//   drop-tail (flow off) — the host rx queue overflows and sheds load
//     silently; the client sees losses and a flat, queue-bounded p99.
//   backpressure (flow on) — the host pauses its PCIe uplink at the rx
//     watermarks, the NIC propagates the pause to the client link, ECN
//     marks come back as CNPs, and the client's DCQCN machine throttles to
//     the service rate: the same overload becomes slowdown instead of loss.
//
// Two gated legs:
//
//   backpressure — the same overloaded host-only chain, flow off vs on.
//     Gated: the drop-tail run must actually shed (min drop fraction), the
//     flow run must not drop at all on the chain (server rx + PCIe), must
//     show the machinery engaged (pause frames, CNPs), and must keep
//     goodput within a ratio of the drop-tail run (backpressure slows the
//     sender down; it must not collapse the service).
//   offload — §9's host-vs-offload comparison in both regimes: the same
//     overload against the software host and against the LaKe FPGA NIC.
//     The FPGA absorbs the offered load either way; the host sheds (flow
//     off) or backpressures (flow on). Gated: the host-vs-offload p99
//     slowdown ratio must *shift* measurably when backpressure is on —
//     with flow control the host path's queueing shows up as client-visible
//     latency instead of silent loss, so the ratio grows.
//
// Modes:
//   (default)            — human-readable summary of both legs.
//   --out PATH [--quick] — writes the JSON part consumed by
//     check_bench_regression.py --flow (BENCH_flow.json, gated in CI
//     against bench/baseline_flow.json).
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/scenario_spec.h"
#include "src/sim/simulation.h"

namespace {

using namespace incod;

constexpr uint64_t kKeyspace = 1024;
constexpr double kOfferedPps = 2.0e6;  // ~6x the 1-core host's capacity.
constexpr uint64_t kSeed = 42;

SimDuration RunWindow(bool quick) {
  return quick ? Milliseconds(20) : Milliseconds(60);
}

// One overloaded §4.1 chain. `offload` picks the LaKe FPGA NIC placement
// (prefilled, so gets are absorbed at device rate) vs the 1-core software
// host behind a conventional NIC.
ScenarioSpec OverloadSpec(bool offload, bool flow_on) {
  KvsTestbedOptions options;
  options.mode = offload ? KvsMode::kLake : KvsMode::kSoftwareOnly;
  ScenarioSpec spec = MakeKvsScenarioSpec(options);
  spec.name = std::string(offload ? "lake" : "host") +
              (flow_on ? "-flow" : "-droptail");
  spec.members[0].host.config.num_cores = 1;
  spec.workload.kind = ScenarioWorkloadSpec::Kind::kKvUniformGets;
  spec.workload.rate_per_second = kOfferedPps;
  spec.workload.keyspace = kKeyspace;
  spec.workload.client.node = kTestbedClientNode;
  spec.flow.enabled = flow_on;
  // Engage host ingress pause well before the rx queue capacity (1024).
  spec.flow.host.pause_high_watermark = 64;
  spec.flow.host.pause_low_watermark = 16;
  // The pacer must not be the artificial bottleneck (the offered load is
  // the arrival process), and throttled overload defers at the source
  // instead of shedding there.
  spec.flow.dcqcn_config.line_rate_pps = 2.5e6;
  spec.flow.dcqcn_config.pacer_capacity = 1 << 20;
  return spec;
}

struct FlowRun {
  double achieved_pps = 0;
  double drop_fraction = 0;   // Chain drops (server rx + PCIe) / sent.
  double p99_us = 0;
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t chain_drops = 0;
  uint64_t pause_frames = 0;  // Host ingress pauses of the PCIe uplink.
  uint64_t cnps = 0;          // CNPs the host sent back to the client.
  double end_rate_pps = -1;   // Client DCQCN rate when the window closed.
};

FlowRun RunChain(bool offload, bool flow_on, bool quick) {
  Simulation sim(kSeed);
  ScenarioTestbed testbed(sim, OverloadSpec(offload, flow_on));
  PrefillKvsMember(testbed.member(0), kKeyspace, 64);
  const SimDuration window = RunWindow(quick);
  sim.RunUntil(window);

  FlowRun run;
  LoadClient* client = testbed.client();
  Server* server = testbed.member(0).server;
  run.sent = client->sent();
  run.received = client->received();
  run.achieved_pps = static_cast<double>(run.received) / ToSeconds(window);
  run.p99_us = ToMicroseconds(static_cast<SimDuration>(client->latency().P99()));
  run.chain_drops = server->requests_dropped();
  if (Link* pcie = server->uplink()) {
    run.chain_drops += pcie->dropped_overflow(server);
  }
  run.drop_fraction =
      run.sent == 0 ? 0 : static_cast<double>(run.chain_drops) / run.sent;
  run.pause_frames = server->pause_frames_sent();
  run.cnps = server->cnps_sent();
  if (client->dcqcn() != nullptr) {
    run.end_rate_pps = client->dcqcn()->current_rate_pps();
  }
  return run;
}

void Print(const char* label, const FlowRun& r) {
  std::cout << label << ": goodput " << r.achieved_pps / 1000.0 << " kpps, drop fraction "
            << r.drop_fraction << " (" << r.chain_drops << "/" << r.sent
            << "), p99 " << r.p99_us << " us, pauses " << r.pause_frames
            << ", cnps " << r.cnps;
  if (r.end_rate_pps >= 0) {
    std::cout << ", dcqcn rate " << r.end_rate_pps / 1000.0 << " kpps";
  }
  std::cout << "\n";
}

int Run(bool quick, const std::string& out_path) {
  bench::PrintHeader("Backpressure under overload: drop-tail vs PFC + DCQCN",
                     "One overloaded client--NIC--host chain; flow control "
                     "converts silent rx-queue loss into pause propagation "
                     "and sender slowdown, and shifts the host-vs-offload "
                     "comparison.");

  std::cout << "offered load: " << kOfferedPps / 1000.0 << " kpps against a 1-core host ("
            << ToSeconds(RunWindow(quick)) << " s window)\n\n";

  const FlowRun host_drop = RunChain(/*offload=*/false, /*flow_on=*/false, quick);
  const FlowRun host_flow = RunChain(/*offload=*/false, /*flow_on=*/true, quick);
  std::cout << "backpressure leg (host-only chain):\n";
  Print("  drop-tail", host_drop);
  Print("  flow     ", host_flow);
  const double goodput_ratio =
      host_drop.achieved_pps == 0 ? 0 : host_flow.achieved_pps / host_drop.achieved_pps;
  std::cout << "  goodput ratio (flow / drop-tail): " << goodput_ratio << "\n\n";

  const FlowRun lake_drop = RunChain(/*offload=*/true, /*flow_on=*/false, quick);
  const FlowRun lake_flow = RunChain(/*offload=*/true, /*flow_on=*/true, quick);
  std::cout << "offload leg (LaKe FPGA absorbs the same load):\n";
  Print("  drop-tail", lake_drop);
  Print("  flow     ", lake_flow);
  const double slowdown_droptail =
      lake_drop.p99_us == 0 ? 0 : host_drop.p99_us / lake_drop.p99_us;
  const double slowdown_flow =
      lake_flow.p99_us == 0 ? 0 : host_flow.p99_us / lake_flow.p99_us;
  std::cout << "  host-vs-offload p99 slowdown: drop-tail x" << slowdown_droptail
            << ", flow x" << slowdown_flow << " (shift x"
            << (slowdown_droptail == 0 ? 0 : slowdown_flow / slowdown_droptail)
            << ")\n";

  if (out_path.empty()) {
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("bench", "flow");
  json.Field("build_type", bench::BuildTypeName());
  json.Field("quick", quick);
  json.BeginObject("backpressure");
  json.Field("offered_pps", kOfferedPps);
  json.Field("droptail_drop_fraction", host_drop.drop_fraction);
  json.Field("flow_drop_fraction", host_flow.drop_fraction);
  json.Field("flow_pause_frames", host_flow.pause_frames);
  json.Field("flow_cnps", host_flow.cnps);
  json.Field("flow_end_rate_pps", host_flow.end_rate_pps);
  json.Field("goodput_ratio", goodput_ratio);
  json.EndObject();
  json.BeginObject("offload");
  json.Field("droptail_slowdown", slowdown_droptail);
  json.Field("flow_slowdown", slowdown_flow);
  json.Field("slowdown_shift",
             slowdown_droptail == 0 ? 0.0 : slowdown_flow / slowdown_droptail);
  json.Field("offload_flow_drop_fraction", lake_flow.drop_fraction);
  json.Field("offload_flow_goodput_pps", lake_flow.achieved_pps);
  json.EndObject();
  json.EndObject();
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_flow [--quick] [--out PATH]\n";
      return 2;
    }
  }
  return Run(quick, out_path);
}
