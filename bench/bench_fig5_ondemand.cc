// Figure 5: power consumption with in-network computing on demand.
//
// For each application, sweep the offered rate with an on-demand controller
// active: at low rates the software serves (software idle power); past the
// controller threshold the workload shifts to the network and power follows
// the (flat) hardware curve. The dashed software-only lines are measured
// alongside. The paper's claim: on demand "saves up to 50% of the power
// compared with software-based solutions".
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "src/ondemand/controller.h"
#include "src/ondemand/migrator.h"
#include "src/scenarios/dns_testbed.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/paxos_testbed.h"
#include "src/sim/simulation.h"
#include "src/workload/dns_workload.h"

namespace incod {
namespace {

using bench::SweepPoint;
using bench::SweepSeries;

NetworkControllerConfig FastController() {
  NetworkControllerConfig config;
  config.up_rate_pps = 150000;
  config.up_window = Milliseconds(300);
  config.down_rate_pps = 50000;
  config.down_window = Milliseconds(300);
  config.check_period = Milliseconds(50);
  config.min_dwell = Milliseconds(200);
  return config;
}

// Lets the controller settle for 1 s, then measures a 200 ms window: wall
// power, completions over the window, and the window's latency percentiles.
template <typename CompletedFn>
SweepPoint MeasureWindow(Simulation& sim, WallPowerMeter& meter, double rate_pps,
                         CompletedFn completed, Histogram& latency) {
  constexpr SimDuration kWindow = Milliseconds(200);
  sim.RunUntil(Seconds(1));
  const SimTime measure_start = sim.Now();
  const uint64_t completed_before = completed();
  latency.Reset();
  sim.RunUntil(measure_start + kWindow);
  SweepPoint point;
  point.offered_pps = rate_pps;
  point.achieved_pps =
      static_cast<double>(completed() - completed_before) / ToSeconds(kWindow);
  point.watts = meter.MeanWatts(measure_start, sim.Now());
  point.p50_us = ToMicroseconds(static_cast<SimDuration>(latency.P50()));
  point.p99_us = ToMicroseconds(static_cast<SimDuration>(latency.P99()));
  return point;
}

RequestFactory GetFactory(NodeId service, uint64_t keys) {
  return [service, keys](NodeId src, uint64_t id, SimTime now, Rng& rng) {
    const uint64_t key =
        static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(keys) - 1));
    return MakeKvRequestPacket(src, service, KvRequest{KvOp::kGet, key, 0}, id, now);
  };
}

SweepPoint MeasureKvs(double rate_pps, bool on_demand) {
  Simulation sim(19);
  KvsTestbedOptions options;
  options.mode = on_demand ? KvsMode::kLake : KvsMode::kSoftwareOnly;
  options.lake_initially_active = false;
  KvsTestbed testbed(sim, options);
  testbed.Prefill(1000, 64);
  auto& client = testbed.AddClient(LoadClientConfig{},
                                   std::make_unique<ConstantArrival>(rate_pps),
                                   GetFactory(testbed.ServiceNode(), 1000));
  std::unique_ptr<StateTransferMigrator> migrator;
  std::unique_ptr<NetworkController> controller;
  if (on_demand) {
    migrator = std::make_unique<StateTransferMigrator>(sim, *testbed.fpga());
    controller = std::make_unique<NetworkController>(sim, *testbed.fpga(), *migrator,
                                                     FastController());
    controller->Start();
  }
  client.Start();
  return MeasureWindow(sim, testbed.meter(), rate_pps,
                       [&client] { return client.received(); }, client.mutable_latency());
}

SweepPoint MeasureDns(double rate_pps, bool on_demand) {
  Simulation sim(19);
  DnsTestbedOptions options;
  options.mode = on_demand ? DnsMode::kEmu : DnsMode::kSoftwareOnly;
  options.emu_initially_active = false;
  DnsTestbed testbed(sim, options);
  DnsWorkloadConfig workload;
  workload.dns_service = testbed.ServiceNode();
  workload.zone_size = options.zone_size;
  auto& client = testbed.AddClient(LoadClientConfig{},
                                   std::make_unique<ConstantArrival>(rate_pps),
                                   MakeDnsRequestFactory(workload));
  std::unique_ptr<StateTransferMigrator> migrator;
  std::unique_ptr<NetworkController> controller;
  if (on_demand) {
    migrator = std::make_unique<StateTransferMigrator>(sim, *testbed.fpga());
    controller = std::make_unique<NetworkController>(sim, *testbed.fpga(), *migrator,
                                                     FastController());
    controller->Start();
  }
  client.Start();
  return MeasureWindow(sim, testbed.meter(), rate_pps,
                       [&client] { return client.received(); }, client.mutable_latency());
}

SweepPoint MeasurePaxos(double rate_pps, bool on_demand) {
  Simulation sim(19);
  PaxosTestbedOptions options;
  if (on_demand) {
    options.deployment = PaxosDeployment::kP4xosFpga;
    options.dual_leader = true;
  } else {
    options.deployment = PaxosDeployment::kLibpaxos;  // Software reference.
  }
  options.client.requests_per_second = rate_pps;
  options.client.max_retries = 2;
  PaxosTestbed testbed(sim, options);
  std::unique_ptr<PaxosLeaderMigrator> migrator;
  std::unique_ptr<NetworkController> controller;
  if (on_demand) {
    migrator = std::make_unique<PaxosLeaderMigrator>(
        sim, testbed.net_switch(), kPaxosLeaderService, *testbed.software_leader(),
        testbed.leader_port(), *testbed.sut_fpga(), *testbed.fpga_leader(),
        testbed.leader_port());
    controller = std::make_unique<NetworkController>(sim, *testbed.sut_fpga(), *migrator,
                                                     FastController());
    controller->Start();
  }
  PaxosClient& client = testbed.client();
  client.Start();
  return MeasureWindow(sim, testbed.meter(), rate_pps,
                       [&client] { return client.completed(); }, client.mutable_latency());
}

}  // namespace
}  // namespace incod

int main() {
  using namespace incod;
  using namespace incod::bench;
  PrintHeader("Figure 5: in-network computing on demand",
              "Solid: on-demand (controller-driven placement); dashed: "
              "software-only. Rates 0-1.2 Mpps.");

  std::vector<SweepSeries> series;
  const std::vector<double> rates = {25000,  50000,  100000, 200000,
                                     400000, 700000, 1000000, 1200000};
  struct AppRunner {
    const char* name;
    SweepPoint (*measure)(double, bool);
  };
  const AppRunner apps[] = {
      {"KVS", &MeasureKvs},
      {"DNS", &MeasureDns},
      {"Paxos", &MeasurePaxos},
  };
  for (const auto& app : apps) {
    SweepSeries on_demand;
    on_demand.name = std::string(app.name) + " (On demand)";
    SweepSeries software;
    software.name = std::string(app.name) + " (SW)";
    for (double rate : rates) {
      on_demand.points.push_back(app.measure(rate, true));
      software.points.push_back(app.measure(rate, false));
    }
    series.push_back(std::move(on_demand));
    series.push_back(std::move(software));
  }
  PrintSeries(series);

  // Headline claim: savings at high rate.
  for (size_t i = 0; i + 1 < series.size(); i += 2) {
    const auto& od = series[i].points.back();
    const auto& sw = series[i + 1].points.back();
    std::cout << series[i].name << " vs SW at "
              << od.offered_pps / 1000 << " kpps: " << od.watts << " W vs "
              << sw.watts << " W ("
              << 100.0 * (sw.watts - od.watts) / sw.watts << "% saved)\n";
  }
  return 0;
}
