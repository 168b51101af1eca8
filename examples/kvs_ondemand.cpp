// In-network computing on demand for a key-value store (§9 of the paper).
//
// A memcached/LaKe pair serves a diurnal load. The host-controlled
// on-demand controller watches RAPL power and the app's CPU usage, shifts
// the KVS into the FPGA NIC when the morning peak arrives, and shifts it
// back at night — logging every decision. This is the Fig 6 experiment as a
// narrated application.
#include <cstdio>
#include <memory>

#include "src/ondemand/controller.h"
#include "src/ondemand/migrator.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/sim/simulation.h"
#include "src/workload/etc_workload.h"

using namespace incod;

int main() {
  Simulation sim(/*seed=*/7);

  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  options.lake_initially_active = false;  // Day starts in software (§9.2).
  KvsTestbed testbed(sim, options);
  testbed.Prefill(50000, 64);

  // Facebook-ETC-like traffic whose rate we modulate like a day/night cycle.
  EtcWorkloadConfig etc_config;
  etc_config.kvs_service = testbed.ServiceNode();
  etc_config.key_population = 50000;
  EtcWorkload etc(etc_config);
  auto arrival = std::make_unique<PoissonArrival>(20000.0);
  PoissonArrival* rate_knob = arrival.get();
  auto& client = testbed.AddClient(LoadClientConfig{}, std::move(arrival),
                                   etc.MakeFactory());

  // "Morning" ramp at t=4 s: 20 kqps -> 600 kqps; "night" at t=14 s.
  sim.Schedule(Seconds(4), [&] {
    rate_knob->SetRate(600000.0);
    std::printf("[%6.1fs] load: morning peak begins (600 kqps)\n",
                ToSeconds(sim.Now()));
  });
  sim.Schedule(Seconds(14), [&] {
    rate_knob->SetRate(20000.0);
    std::printf("[%6.1fs] load: night (20 kqps)\n", ToSeconds(sim.Now()));
  });

  // The migrator keeps the idle app clock-gated with memories in reset —
  // the paper's recommended parked state.
  StateTransferMigrator migrator(sim, *testbed.fpga());

  // Host-controlled on-demand controller: RAPL + CPU usage, sustained
  // windows, mirrored thresholds for hysteresis (§9.1).
  RaplCounter rapl(sim, [&] { return testbed.server()->RaplPackageWatts(); });
  rapl.Start();
  HostControllerConfig controller_config;
  controller_config.up_power_watts = 20.0;
  controller_config.up_cpu_usage = 0.5;
  controller_config.up_window = Seconds(2);
  controller_config.down_rate_pps = 60000;
  controller_config.down_power_watts = 15.0;
  controller_config.down_window = Seconds(2);
  HostController controller(sim, *testbed.server(), AppProto::kKv, rapl,
                            *testbed.fpga(), migrator, controller_config);
  controller.Start();

  // Narrate status once a second.
  SchedulePeriodic(sim, Seconds(1), Seconds(1), [&] {
    static uint64_t last = 0;
    const uint64_t received = client.received();
    std::printf("[%6.1fs] %-7s | %7.1f kqps | p50 %6.2f us | %5.1f W | hw hits %llu\n",
                ToSeconds(sim.Now()), PlacementName(migrator.placement()),
                static_cast<double>(received - last) / 1000.0,
                ToMicroseconds(static_cast<SimDuration>(client.latency().P50())),
                testbed.meter().InstantWatts(),
                static_cast<unsigned long long>(testbed.lake()->l1_hits() +
                                                testbed.lake()->l2_hits()));
    client.mutable_latency().Reset();
    last = received;
    return sim.Now() < Seconds(20);
  });

  client.Start();
  sim.RunUntil(Seconds(20));

  std::printf("\ntransitions:\n");
  for (const auto& t : migrator.transitions()) {
    std::printf("  %6.1fs -> %s\n", ToSeconds(t.at), PlacementName(t.to));
  }
  std::printf("total served: %llu of %llu (%.2f%% loss)\n",
              static_cast<unsigned long long>(client.received()),
              static_cast<unsigned long long>(client.sent()),
              100.0 * client.LossFraction());
  return 0;
}
