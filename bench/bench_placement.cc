// §8 / §9.4 / §10: when and where to run in-network computing.
//
// Uses the EnergyAdvisor to compute tipping points for each application on
// each device class, the ToR-switch marginal-power argument (tipping point
// near zero), and the §10 SmartNIC comparison table.
//
// The final section replaces the analytic host model with a *measured* one:
// the software-only KVS chain is driven past capacity with the mechanistic
// host-NIC datapath enabled (HostNicSpec: RSS rings, interrupt moderation,
// doorbell batching) under two load shapes — a small-packet flood (64 B
// values) and a large-value bulk mix (1024 B values). Because the host is
// packet-rate-bound (per-op CPU cost, interrupt charges), its measured
// capacity and host->offload tipping point in kpps barely move between the
// shapes, while the same tipping point expressed in Gbps of served traffic
// shifts by the wire-size ratio: the tipping point tracks packet rate, not
// byte rate. A third leg with the datapath disabled isolates the interrupt
// cost, and a small-ring leg shows descriptor-ring overflow as its own drop
// class. Gated in CI via check_bench_regression.py --hostnic against
// bench/baseline_hostnic.json.
//
// Modes:
//   (default)            — human-readable analysis (all sections).
//   --out PATH [--quick] — also writes the JSON part consumed by
//     check_bench_regression.py --hostnic.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/app/app_registry.h"
#include "src/device/smartnic.h"
#include "src/dns/zone.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/memcached_server.h"
#include "src/ondemand/energy_advisor.h"
#include "src/power/cpu_power.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/scenario_spec.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/stats/csv.h"

namespace {

using namespace incod;

RatePowerFn Add4(RatePowerFn fn) {
  return [fn](double r) { return fn(r) + 4.0; };  // + conventional NIC.
}

// --- Measured host-NIC load-shape sweep --------------------------------------

constexpr double kOfferedPps = 2.0e6;
constexpr uint64_t kKeyspace = 1024;
constexpr uint64_t kSeed = 42;
constexpr uint32_t kFloodValueBytes = 64;
constexpr uint32_t kBulkValueBytes = 1024;

enum class HostNicProfile {
  kOff,           // Legacy pass-through NIC, idealized dispatch.
  kModeration,    // Rings deep enough; tight coalescing makes irq cost real.
  kRingPressure,  // Small rings + timer-only coalescing: rings overflow.
};

struct ShapeRun {
  double capacity_kpps = 0;    // Measured host completions / window.
  double tipping_kpps = -1;    // Host->FPGA tipping from the measured cost.
  double tipping_gbps = -1;    // Same tipping in served-reply Gbps.
  uint64_t ring_drops = 0;
  uint64_t nic_interrupts = 0;
  uint64_t host_interrupts = 0;
  uint64_t server_overflow = 0;
};

ScenarioSpec ShapeSpec(HostNicProfile profile) {
  KvsTestbedOptions options;
  options.mode = KvsMode::kSoftwareOnly;
  ScenarioSpec spec = MakeKvsScenarioSpec(options);
  spec.name = "hostnic-shape";
  spec.workload.kind = ScenarioWorkloadSpec::Kind::kKvUniformGets;
  spec.workload.rate_per_second = kOfferedPps;
  spec.workload.keyspace = kKeyspace;
  spec.workload.client.node = kTestbedClientNode;
  if (profile == HostNicProfile::kOff) {
    return spec;
  }
  spec.hostnic.enabled = true;
  if (profile == HostNicProfile::kModeration) {
    // Small batches keep the per-interrupt CPU charge visible (1 us per 4
    // requests) while the 256-deep rings never overflow.
    spec.hostnic.nic.ring_depth = 256;
    spec.hostnic.nic.coalesce_packets = 4;
    spec.hostnic.nic.coalesce_timer = Microseconds(10);
  } else {
    // Aggressive moderation against shallow rings: the count trigger is
    // unreachable, the timer drains every 50 us, and 16 descriptors cannot
    // cover the arrivals in between — the ring sheds on the NIC.
    spec.hostnic.nic.ring_depth = 16;
    spec.hostnic.nic.coalesce_packets = 1000;
    spec.hostnic.nic.coalesce_timer = Microseconds(50);
  }
  return spec;
}

ShapeRun RunShape(uint32_t value_bytes, HostNicProfile profile, bool quick) {
  Simulation sim(kSeed);
  ScenarioTestbed testbed(sim, ShapeSpec(profile));
  auto* memcached = testbed.member_host_app_as<MemcachedServer>(0);
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    memcached->store().Set(k, value_bytes);
  }
  const SimDuration window = quick ? Milliseconds(20) : Milliseconds(60);
  sim.RunUntil(window);

  ShapeRun run;
  Server* server = testbed.member(0).server;
  run.capacity_kpps =
      static_cast<double>(server->requests_completed()) / ToSeconds(window) / 1000.0;
  run.server_overflow = server->dropped_overflow();
  run.host_interrupts = server->interrupts_serviced();
  if (ConventionalNic* nic = testbed.member(0).nic) {
    run.ring_drops = nic->ring_drops();
    run.nic_interrupts = nic->interrupts_raised();
  }
  // The measured cost replaces the analytic 4 us/request host model: at
  // saturation every worker is busy, so per-request core time is
  // threads / capacity, interrupt charges and all.
  const int threads = server->config().num_cores;
  if (run.capacity_kpps > 0) {
    const SimDuration effective_core_time =
        static_cast<SimDuration>(threads / (run.capacity_kpps * 1000.0) * 1e9);
    const auto software =
        Add4(MakeServerRatePower(I7MemcachedCurve(), effective_core_time, threads));
    const auto network = MakeFpgaRatePower(35.0, 24.0, 1.0, 13e6);
    const auto advice = AdvisePlacement(software, network, kOfferedPps);
    if (advice.tipping_rate_pps.has_value()) {
      run.tipping_kpps = *advice.tipping_rate_pps / 1000.0;
      const double reply_bytes = static_cast<double>(kKvHeaderBytes + value_bytes);
      run.tipping_gbps = *advice.tipping_rate_pps * reply_bytes * 8.0 / 1e9;
    }
  }
  return run;
}

int Run(bool quick, const std::string& out_path) {
  bench::PrintHeader("Sections 8/9.4/10: placement analysis",
                     "Energy tipping points per application and target.");

  // --- §8: FPGA-in-server tipping points per application ---
  CsvTable tips({"application", "software", "network", "tipping_kpps", "paper_kpps"});
  struct Case {
    const char* app;
    RatePowerFn software;
    RatePowerFn network;
    const char* paper;
  };
  const Case cases[] = {
      {"KVS (memcached vs LaKe)",
       Add4(MakeServerRatePower(I7MemcachedCurve(), Microseconds(4), 4)),
       MakeFpgaRatePower(35.0, 24.0, 1.0, 13e6), "~80"},
      {"Paxos (libpaxos vs P4xos)",
       Add4(MakeServerRatePower(I7LibpaxosCurve(), Nanoseconds(5600), 1)),
       MakeFpgaRatePower(35.0, 12.6, 1.2, 10e6), "~150"},
      {"DNS (NSD vs Emu)",
       Add4(MakeServerRatePower(I7NsdCurve(), Nanoseconds(4180), 4)),
       MakeFpgaRatePower(35.0, 12.5, 0.5, 1e6), "<200"},
  };
  for (const auto& c : cases) {
    const auto advice = AdvisePlacement(c.software, c.network, 2e6);
    tips.AddRow({std::string(c.app), c.software(0.0), c.network(0.0),
                 advice.tipping_rate_pps.has_value() ? *advice.tipping_rate_pps / 1000.0
                                                     : -1.0,
                 std::string(c.paper)});
  }
  tips.WriteAligned(std::cout);
  std::cout << "\n";

  // --- §9.4: ToR switch on demand ---
  auto software = MakeServerRatePower(I7LibpaxosCurve(), Nanoseconds(5600), 1);
  auto switch_marginal = MakeSwitchMarginalPower(0.02, 350.0, 2.5e9);
  const auto advice = AdvisePlacement(software, switch_marginal, 1e6);
  std::cout << "ToR switch marginal tipping point: "
            << (advice.tipping_rate_pps.has_value() ? *advice.tipping_rate_pps : -1)
            << " pps — " << (advice.network_always_wins ? "network always wins" : "")
            << " (paper: Pd_N(R)=Pd_S(R) when R is almost zero; <1 W per "
               "million queries at <5 W per 100G port)\n\n";

  // --- §10: FPGA vs SmartNIC vs switch ---
  CsvTable nics({"device", "arch", "idle_w", "max_w", "peak_mpps", "mops_per_watt",
                 "flexible_io", "scalable"});
  for (const auto& preset : StandardSmartNicPresets()) {
    nics.AddRow({preset.name, std::string(SmartNicArchName(preset.arch)),
                 preset.idle_watts, preset.max_watts, preset.peak_mpps,
                 OpsPerWattAtPeak(preset) / 1e6,
                 std::string(preset.flexible_interfaces ? "yes" : "no"),
                 std::string(preset.scalable_resources ? "yes" : "no")});
  }
  // The switch ASIC and NetFPGA rows for comparison.
  nics.AddRow({std::string("tofino-switch"), std::string("asic"), 294.0, 350.0, 2500.0,
               2500e6 / 350.0 / 1e6, std::string("no"), std::string("yes")});
  nics.AddRow({std::string("netfpga-sume"), std::string("fpga"), 11.0, 28.0, 13.0,
               13e6 / 28.0 / 1e6, std::string("yes"), std::string("yes")});
  nics.WriteAligned(std::cout);
  std::cout << "\n--- csv ---\n";
  nics.WriteCsv(std::cout);
  std::cout << "\n(§10: the switch wins on absolute performance and perf/W; "
               "SmartNICs stay within the 25 W PCIe budget at millions of "
               "ops/W; FPGAs trade peak efficiency for flexibility.)\n";

  // --- SmartNIC placement tipping points per registry family ---
  // Each family's per-arch firmware profile (the kSmartNic registry
  // placement) scales the board's peak; the advisor then answers the same
  // §8 question per (app, board) pair the rack orchestrator asks per shift.
  Zone zone;
  zone.FillSynthetic(64);
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;
  AppFactoryEnv env;
  env.zone = &zone;
  env.paxos_group = &group;
  env.service = 200;

  struct SmartNicCase {
    const char* family;
    RatePowerFn software;
  };
  const SmartNicCase families[] = {
      {"kvs", Add4(MakeServerRatePower(I7MemcachedCurve(), Microseconds(4), 4))},
      {"dns", Add4(MakeServerRatePower(I7NsdCurve(), Nanoseconds(4180), 4))},
      {"paxos-leader",
       Add4(MakeServerRatePower(I7LibpaxosCurve(), Nanoseconds(5600), 1))},
  };
  CsvTable smartnic_tips({"application", "board", "arch", "app_mpps", "tipping_kpps"});
  std::cout << "\n";
  for (const auto& family : families) {
    auto app = AppRegistry::Global().Create(family.family, PlacementKind::kSmartNic, env);
    const SmartNicPlacementProfile profile = app->OffloadProfile().smartnic;
    for (const auto& preset : StandardSmartNicPresets()) {
      const double fraction = profile.MppsFractionFor(preset.arch);
      const auto network = MakeSmartNicRatePower(35.0, preset, fraction);
      const auto nic_advice = AdvisePlacement(family.software, network, 2e6);
      smartnic_tips.AddRow(
          {std::string(family.family), preset.name,
           std::string(SmartNicArchName(preset.arch)), preset.peak_mpps * fraction,
           nic_advice.tipping_rate_pps.has_value() ? *nic_advice.tipping_rate_pps / 1000.0
                                                   : -1.0});
    }
  }
  smartnic_tips.WriteAligned(std::cout);
  std::cout << "(per-arch firmware fractions from the registry's kSmartNic "
               "profiles; -1 = the board never beats the host below 2 Mpps)\n";

  // --- Measured host-NIC datapath: load-shape sweep ---
  std::cout << "\nmeasured host datapath (KVS host at " << kOfferedPps / 1e6
            << " Mpps offered, mechanistic HostNicSpec):\n";
  const ShapeRun flood = RunShape(kFloodValueBytes, HostNicProfile::kModeration, quick);
  const ShapeRun bulk = RunShape(kBulkValueBytes, HostNicProfile::kModeration, quick);
  const ShapeRun ideal = RunShape(kFloodValueBytes, HostNicProfile::kOff, quick);
  const ShapeRun ring = RunShape(kFloodValueBytes, HostNicProfile::kRingPressure, quick);

  CsvTable shapes({"shape", "value_bytes", "capacity_kpps", "tipping_kpps",
                   "tipping_gbps", "interrupts", "ring_drops"});
  shapes.AddRow({std::string("flood"), static_cast<double>(kFloodValueBytes),
                 flood.capacity_kpps, flood.tipping_kpps, flood.tipping_gbps,
                 static_cast<double>(flood.nic_interrupts),
                 static_cast<double>(flood.ring_drops)});
  shapes.AddRow({std::string("bulk"), static_cast<double>(kBulkValueBytes),
                 bulk.capacity_kpps, bulk.tipping_kpps, bulk.tipping_gbps,
                 static_cast<double>(bulk.nic_interrupts),
                 static_cast<double>(bulk.ring_drops)});
  shapes.AddRow({std::string("flood-ideal"), static_cast<double>(kFloodValueBytes),
                 ideal.capacity_kpps, ideal.tipping_kpps, ideal.tipping_gbps,
                 static_cast<double>(ideal.nic_interrupts),
                 static_cast<double>(ideal.ring_drops)});
  shapes.AddRow({std::string("flood-smallring"), static_cast<double>(kFloodValueBytes),
                 ring.capacity_kpps, ring.tipping_kpps, ring.tipping_gbps,
                 static_cast<double>(ring.nic_interrupts),
                 static_cast<double>(ring.ring_drops)});
  shapes.WriteAligned(std::cout);

  const double kpps_ratio =
      bulk.tipping_kpps <= 0 ? 0 : flood.tipping_kpps / bulk.tipping_kpps;
  const double gbps_shift =
      flood.tipping_gbps <= 0 ? 0 : bulk.tipping_gbps / flood.tipping_gbps;
  const double irq_ratio =
      flood.capacity_kpps <= 0 ? 0 : ideal.capacity_kpps / flood.capacity_kpps;
  std::cout << "tipping in kpps flood/bulk: " << kpps_ratio
            << " (packet-rate-bound: the shape barely moves it)\n"
            << "tipping in Gbps bulk/flood: " << gbps_shift
            << "x (the byte-rate view moves with the wire size)\n"
            << "ideal/mechanistic capacity: " << irq_ratio
            << " (the interrupt path is a real cost)\n";

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
  json.Field("bench", "hostnic");
  json.Field("build_type", bench::BuildTypeName());
  json.Field("quick", quick);
  json.BeginObject("hostnic");
  json.Field("offered_pps", kOfferedPps);
  json.Field("flood_value_bytes", static_cast<uint64_t>(kFloodValueBytes));
  json.Field("bulk_value_bytes", static_cast<uint64_t>(kBulkValueBytes));
  json.Field("flood_capacity_kpps", flood.capacity_kpps);
  json.Field("bulk_capacity_kpps", bulk.capacity_kpps);
  json.Field("ideal_capacity_kpps", ideal.capacity_kpps);
  json.Field("flood_tipping_kpps", flood.tipping_kpps);
  json.Field("bulk_tipping_kpps", bulk.tipping_kpps);
  json.Field("flood_tipping_gbps", flood.tipping_gbps);
  json.Field("bulk_tipping_gbps", bulk.tipping_gbps);
  json.Field("kpps_tipping_ratio", kpps_ratio);
  json.Field("gbps_tipping_shift", gbps_shift);
  json.Field("irq_capacity_ratio", irq_ratio);
  json.Field("mech_interrupts", flood.nic_interrupts);
  json.Field("host_interrupts_serviced", flood.host_interrupts);
  json.Field("smallring_ring_drops", ring.ring_drops);
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
      std::cerr << "usage: bench_placement [--quick] [--out PATH]\n";
      return 2;
    }
  }
  return Run(quick, out_path);
}
