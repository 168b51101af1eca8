// Figure 7: transitioning the Paxos leader between software and hardware.
//
// A central controller re-points the leader service (switch rule) from the
// software leader to the P4xos leader on the NetFPGA and back. Expected
// shape (§9.2): throughput rises and latency halves while the leader is in
// hardware; at each shift throughput drops to zero for about the client
// timeout (~100 ms) while the new leader learns the latest Paxos instance.
//
// Modes:
//   (default)            — the paper's timeline reproduction (cold shifts).
//   --out PATH [--quick] — warm-vs-cold comparison: runs the same shifts
//     with transfer_state off (the paper: ballot reset + sequence
//     re-learning, ~100 ms gap) and on (the generic state-transfer path:
//     ballot+sequence ride the typed snapshot), measures the service gap at
//     each shift, and records the delta as a JSON part for
//     BENCH_transitions.json (gated in CI against
//     bench/baseline_transitions.json).
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/ondemand/migrator.h"
#include "src/scenarios/paxos_testbed.h"
#include "src/sim/simulation.h"
#include "src/stats/csv.h"

namespace {

using namespace incod;

struct GapResult {
  // Service gap after each shift: time from the classifier flip until the
  // client completes its next request.
  double to_network_gap_ms = 0;
  double to_host_gap_ms = 0;
  uint64_t completed = 0;
  uint64_t retries = 0;
};

GapResult RunTransition(bool warm, bool quick) {
  Simulation sim(29);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kP4xosFpga;
  options.dual_leader = true;
  options.client.requests_per_second = 10000;
  options.client.retry_timeout = Milliseconds(100);
  options.client.rate_bucket = Milliseconds(100);
  PaxosTestbed testbed(sim, options);

  PaxosLeaderMigrator migrator(sim, testbed.net_switch(), kPaxosLeaderService,
                               *testbed.software_leader(), testbed.leader_port(),
                               *testbed.sut_fpga(), *testbed.fpga_leader(),
                               testbed.leader_port());
  migrator.SetTransferState(warm);

  const SimTime shift_net_at = Seconds(1);
  const SimTime shift_host_at = quick ? Seconds(2) : Seconds(3);
  const SimTime end_at = shift_host_at + Seconds(1);

  GapResult result;
  auto measure_gap = [&](SimTime at, double* gap_ms) {
    sim.Schedule(at - sim.Now(), [&sim, &testbed, at, gap_ms] {
      const uint64_t base = testbed.client().completed();
      SchedulePeriodic(sim, Microseconds(500), Microseconds(500),
                       [&sim, &testbed, at, gap_ms, base] {
                         if (testbed.client().completed() <= base) {
                           return true;
                         }
                         *gap_ms = ToMilliseconds(sim.Now() - at);
                         return false;
                       });
    });
  };

  sim.Schedule(shift_net_at, [&] { migrator.ShiftToNetwork(); });
  measure_gap(shift_net_at, &result.to_network_gap_ms);
  sim.Schedule(shift_host_at, [&] { migrator.ShiftToHost(); });
  measure_gap(shift_host_at, &result.to_host_gap_ms);

  testbed.client().Start();
  sim.RunUntil(end_at);
  result.completed = testbed.client().completed();
  result.retries = testbed.client().retries();
  return result;
}

int RunComparison(bool quick, const std::string& out_path) {
  bench::PrintHeader("Figure 7: Paxos leader transition gap, warm vs cold",
                     "Cold: the paper's shift (ballot reset, sequence "
                     "re-learning, ~100 ms gap). Warm: ballot+sequence ride "
                     "the generic state-transfer path.");
  const GapResult cold = RunTransition(/*warm=*/false, quick);
  const GapResult warm = RunTransition(/*warm=*/true, quick);

  std::cout << "cold: to-network gap " << cold.to_network_gap_ms << " ms, to-host gap "
            << cold.to_host_gap_ms << " ms, completed " << cold.completed
            << ", retries " << cold.retries << "\n";
  std::cout << "warm: to-network gap " << warm.to_network_gap_ms << " ms, to-host gap "
            << warm.to_host_gap_ms << " ms, completed " << warm.completed
            << ", retries " << warm.retries << "\n";
  std::cout << "delta (cold - warm) to-network: "
            << cold.to_network_gap_ms - warm.to_network_gap_ms << " ms\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("bench", "fig7_paxos_transition");
  json.Field("build_type", bench::BuildTypeName());
  json.Field("quick", quick);
  json.BeginObject("paxos");
  json.Field("cold_to_network_gap_ms", cold.to_network_gap_ms);
  json.Field("warm_to_network_gap_ms", warm.to_network_gap_ms);
  json.Field("cold_to_host_gap_ms", cold.to_host_gap_ms);
  json.Field("warm_to_host_gap_ms", warm.to_host_gap_ms);
  json.Field("delta_to_network_gap_ms",
             cold.to_network_gap_ms - warm.to_network_gap_ms);
  json.Field("cold_retries", cold.retries);
  json.Field("warm_retries", warm.retries);
  json.Field("cold_completed", cold.completed);
  json.Field("warm_completed", warm.completed);
  json.EndObject();
  json.EndObject();
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}

int RunTimeline() {
  bench::PrintHeader("Figure 7: Paxos leader software->network->software",
                     "10 kreq/s client, 100 ms retry timeout; shifts at 1 s "
                     "and 3 s (the paper's red dashed lines).");

  Simulation sim(29);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kP4xosFpga;
  options.dual_leader = true;
  options.client.requests_per_second = 10000;
  options.client.retry_timeout = Milliseconds(100);
  options.client.rate_bucket = Milliseconds(100);
  PaxosTestbed testbed(sim, options);

  PaxosLeaderMigrator migrator(sim, testbed.net_switch(), kPaxosLeaderService,
                               *testbed.software_leader(), testbed.leader_port(),
                               *testbed.sut_fpga(), *testbed.fpga_leader(),
                               testbed.leader_port());
  sim.Schedule(Seconds(1), [&] { migrator.ShiftToNetwork(); });
  sim.Schedule(Seconds(3), [&] { migrator.ShiftToHost(); });

  CsvTable timeline({"time_ms", "throughput_kpps", "latency_us", "placement"});
  SchedulePeriodic(sim, Milliseconds(100), Milliseconds(100), [&] {
    const auto& series = testbed.client().completion_rate();
    const double kpps = series.empty() ? 0.0 : series.samples().back().value / 1000.0;
    timeline.AddRow({static_cast<int64_t>(ToMilliseconds(sim.Now())), kpps,
                     ToMicroseconds(static_cast<SimDuration>(
                         testbed.client().latency().P50())),
                     std::string(PlacementName(migrator.placement()))});
    testbed.client().mutable_latency().Reset();
    return sim.Now() < Seconds(5);
  });

  testbed.client().Start();
  sim.RunUntil(Seconds(5));

  timeline.WriteAligned(std::cout);
  std::cout << "\n--- csv ---\n";
  timeline.WriteCsv(std::cout);

  std::cout << "\ntransitions:";
  for (const auto& t : migrator.transitions()) {
    std::cout << " " << ToSeconds(t.at) << "s->" << PlacementName(t.to);
  }
  std::cout << "\nclient: sent " << testbed.client().sent() << ", completed "
            << testbed.client().completed() << ", retries " << testbed.client().retries()
            << " (the ~100 ms gap at each shift)\n";
  std::cout << "sequence jumps learned by leaders: hw="
            << testbed.fpga_leader()->leader()->sequence_jumps()
            << " sw=" << testbed.software_leader()->state().sequence_jumps() << "\n";
  std::cout << "learner: delivered " << testbed.learner()->state().delivered_count()
            << ", no-ops " << testbed.learner()->state().noop_count()
            << ", fill requests " << testbed.learner()->state().fill_requests_sent()
            << "\n";
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
      std::cerr << "usage: bench_fig7_paxos_transition [--quick] [--out PATH]\n";
      return 2;
    }
  }
  if (!out_path.empty()) {
    return RunComparison(quick, out_path);
  }
  return RunTimeline();
}
