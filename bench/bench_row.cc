// Datacenter-row power orchestration under correlated faults.
//
// The row-scale counterpart of bench_recovery: a 4-rack row (the multi-rack
// KVS+DNS spec, orchestrated) under one global power ledger, measured on the
// two row-specific robustness axes:
//
//   wave    — a global brownout steps the row budget below the racks'
//             aggregate offload commitments. The RowOrchestrator
//             re-apportions and pushes shrunken caps down; every rack's
//             ApplyPowerCap evicts its offload home. The gated metric is
//             the re-placement wave latency: brownout to the *last* rack's
//             eviction (the caps ride the same cross-shard hop packets use,
//             so the wave is bounded by the uplink fiber, not a control
//             plane round-trip).
//   cadence — a correlated device-death wave (a power event takes every
//             rack's LaKe board down at once) with recovery landing on each
//             rack's ToR NetCache program. Warm restores come from the
//             latest periodic checkpoint, so the post-event miss fraction
//             is a function of the per-rack checkpoint cadence: cold (no
//             checkpoints) re-learns the hot set through the sketch, any
//             warm cadence restores the cache contents. The gated metrics
//             are the fine-cadence miss fraction (near-lossless), the
//             cold-minus-fine delta, and monotonicity across the cadence
//             sweep.
//
// All quantities are simulated-time metrics, deterministic per seed (the
// row runs single-queue here; engine_diff_test proves sharded runs are
// event-identical anyway).
//
// Modes:
//   (default)            — human-readable summary of both legs.
//   --out PATH [--quick] — writes the JSON part consumed by
//     check_bench_regression.py --row (BENCH_row.json, gated in CI against
//     bench/baseline_row.json).
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/kvs/netcache.h"
#include "src/row/row_scenario.h"
#include "src/row/row_spec.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/multi_rack.h"
#include "src/sim/sharded.h"

namespace {

using namespace incod;

constexpr int kRacks = 4;
constexpr double kBudgetWatts = 120;    // Fits every rack's offload.
constexpr double kBrownoutWatts = 40;   // Fits none of them.
const SimTime kEventAt = Milliseconds(10);

MultiRackOptions RowBenchOptions() {
  MultiRackOptions options;
  options.num_racks = kRacks;
  options.kvs_rate_per_second = 150000;
  options.dns_rate_per_second = 75000;
  options.prefill = 1000;  // <= LaKe l1_entries: checkpoints cover it.
  options.keyspace = 1000;
  return options;
}

// The multi-rack spec with every rack orchestrated and pinned: long dwell
// keeps the periodic economics pass from moving apps, so the only shifts
// are the ones the measured event causes.
RowSpec OrchestratedRow(double budget_watts) {
  RowSpec row = MakeMultiRackRowSpec(RowBenchOptions());
  for (RowRackSpec& rack : row.racks) {
    rack.scenario.members[0].target.initially_active = false;
    // One fault name shared across racks so the correlated wave can address
    // "lake" in every rack at once.
    rack.scenario.members[0].target.name = "lake";
    rack.orchestrate = true;
    rack.orchestrator.check_period = Milliseconds(2);
    rack.orchestrator.min_dwell = Seconds(30);
    rack.orchestrator.sample_period = Milliseconds(2);
    RowAppSpec app;
    app.member = 0;
    rack.apps.push_back(app);
  }
  row.power.global_budget_watts = budget_watts;
  row.power.report_period = Milliseconds(2);
  row.power.apportion_period = Milliseconds(5);
  row.power.sample_period = Milliseconds(2);
  row.power.min_rack_watts = 5;
  return row;
}

ShardedSimulation::Options ShardOptions(uint64_t seed) {
  ShardedSimulation::Options options;
  options.num_shards = kRacks + 1;  // One per rack plus the spine.
  options.num_threads = 1;
  options.mode = ShardedSimulation::Mode::kSingleQueue;
  options.seed = seed;
  return options;
}

void PrefillRacks(RowScenario& row) {
  const MultiRackOptions options = RowBenchOptions();
  for (int r = 0; r < row.num_racks(); ++r) {
    PrefillKvsMember(row.rack(r).member(0), options.prefill, options.value_bytes);
  }
}

void ForceOffloads(RowScenario& row) {
  for (int r = 0; r < row.num_racks(); ++r) {
    row.rack_orchestrator(r)->ForcePlacement(row.orchestrator_index(r, 0),
                                             0);  // LaKe FPGA.
  }
}

// --- Leg A: global-brownout re-placement wave -------------------------------

struct WaveResult {
  int racks_evicted = 0;
  double first_eviction_ms = -1;
  double wave_latency_ms = -1;  // Brownout -> last rack's eviction.
  uint64_t caps_issued = 0;
  uint64_t apportion_rounds = 0;
};

WaveResult RunWave() {
  ShardedSimulation ssim(ShardOptions(21));
  RowSpec spec = OrchestratedRow(kBudgetWatts);
  RowFaultEventSpec brownout;
  brownout.kind = RowFaultEventSpec::Kind::kGlobalBrownout;
  brownout.at = kEventAt;
  brownout.watts = kBrownoutWatts;
  spec.faults.events.push_back(brownout);
  RowScenario row(ssim, std::move(spec));
  PrefillRacks(row);
  row.Start();
  ForceOffloads(row);

  ssim.RunUntil(kEventAt + Milliseconds(5));

  WaveResult result;
  for (int r = 0; r < row.num_racks(); ++r) {
    double eviction_ms = -1;
    for (const RackDecisionRecord& record :
         row.rack_orchestrator(r)->decision_log()) {
      if (record.kind == RackDecisionRecord::Kind::kShiftHome &&
          record.at >= kEventAt) {
        eviction_ms = ToMilliseconds(record.at - kEventAt);
        break;
      }
    }
    if (eviction_ms < 0) {
      continue;
    }
    ++result.racks_evicted;
    result.first_eviction_ms = result.first_eviction_ms < 0
                                   ? eviction_ms
                                   : std::min(result.first_eviction_ms, eviction_ms);
    result.wave_latency_ms = std::max(result.wave_latency_ms, eviction_ms);
  }
  result.caps_issued = row.row_orchestrator()->caps_issued();
  result.apportion_rounds = row.row_orchestrator()->apportion_rounds();
  return result;
}

// --- Leg B: post-brownout miss fraction vs checkpoint cadence ---------------

struct CadencePoint {
  std::string label;
  double checkpoint_period_ms = 0;
  double miss_fraction = 1.0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t checkpoints = 0;
  int warm_recoveries = 0;
  double detection_ms = -1;  // Worst rack.
};

CadencePoint RunCadence(const std::string& label, SimDuration checkpoint_period,
                        bool quick) {
  ShardedSimulation ssim(ShardOptions(33));
  // Generous budget: the row apparatus runs but power never evicts — the
  // only displacement is the death wave.
  RowSpec spec = OrchestratedRow(200.0);
  for (int r = 0; r < static_cast<int>(spec.racks.size()); ++r) {
    RowRackSpec& rack = spec.racks[static_cast<size_t>(r)];
    // ASIC ToR with a NetCache program: the surviving landing spot.
    rack.scenario.tor.asic = true;
    ScenarioMemberSpec& kvs = rack.scenario.members[0];
    kvs.switch_app = "kvs";
    kvs.env.service = MultiRackScenario::KvsHostNode(r);
    rack.orchestrator.heartbeat_period = Milliseconds(1);
    rack.orchestrator.failure_threshold = 2;
    rack.orchestrator.checkpoint_period = checkpoint_period;
    rack.apps[0].switch_option = true;
  }
  AppendDeviceDeathWave(spec.faults, {0, 1, 2, 3}, "lake", kEventAt);
  RowScenario row(ssim, std::move(spec));
  PrefillRacks(row);
  row.Start();
  ForceOffloads(row);

  // Heartbeat 1 ms x threshold 2: every rack has recovered well before
  // +10 ms. Measure the landing caches' economics over a window from there.
  ssim.RunUntil(kEventAt + Milliseconds(10));
  std::vector<uint64_t> hits_base(static_cast<size_t>(kRacks));
  std::vector<uint64_t> misses_base(static_cast<size_t>(kRacks));
  auto netcache = [&row](int r) {
    return dynamic_cast<KvSwitchCache*>(
        row.rack(r).member(0).switch_program_app.get());
  };
  for (int r = 0; r < kRacks; ++r) {
    hits_base[static_cast<size_t>(r)] = netcache(r)->hits();
    misses_base[static_cast<size_t>(r)] = netcache(r)->misses_forwarded();
  }
  ssim.RunUntil(kEventAt + Milliseconds(10) +
                (quick ? Milliseconds(100) : Milliseconds(250)));

  CadencePoint point;
  point.label = label;
  point.checkpoint_period_ms = ToMilliseconds(checkpoint_period);
  for (int r = 0; r < kRacks; ++r) {
    point.hits += netcache(r)->hits() - hits_base[static_cast<size_t>(r)];
    point.misses +=
        netcache(r)->misses_forwarded() - misses_base[static_cast<size_t>(r)];
    const RackOrchestrator* orchestrator = row.rack_orchestrator(r);
    point.checkpoints += orchestrator->checkpoints_taken();
    for (const RackDecisionRecord& record : orchestrator->decision_log()) {
      if (record.kind == RackDecisionRecord::Kind::kFailure) {
        point.detection_ms = std::max(point.detection_ms,
                                      ToMilliseconds(record.at - kEventAt));
      }
      if (record.kind == RackDecisionRecord::Kind::kRecovery && record.warm) {
        ++point.warm_recoveries;
      }
    }
  }
  const uint64_t total = point.hits + point.misses;
  point.miss_fraction =
      total == 0 ? 1.0
                 : static_cast<double>(point.misses) / static_cast<double>(total);
  return point;
}

void PrintPoint(const CadencePoint& point) {
  std::cout << "  " << point.label << " (checkpoint period "
            << point.checkpoint_period_ms << " ms): miss fraction "
            << point.miss_fraction << " (" << point.hits << " hits / "
            << point.misses << " forwarded), detection " << point.detection_ms
            << " ms, checkpoints " << point.checkpoints << ", warm recoveries "
            << point.warm_recoveries << "/" << kRacks << "\n";
}

int Run(bool quick, const std::string& out_path) {
  bench::PrintHeader(
      "Datacenter-row orchestration under correlated faults",
      "A 4-rack row under one global power ledger: the brownout cap cascade's "
      "re-placement wave latency, and the post-event miss fraction as a "
      "function of the per-rack checkpoint cadence.");

  const WaveResult wave = RunWave();
  std::cout << "wave: global brownout " << kBudgetWatts << " W -> "
            << kBrownoutWatts << " W at " << ToMilliseconds(kEventAt)
            << " ms; caps cascade into per-rack evictions\n"
            << "  racks evicted " << wave.racks_evicted << "/" << kRacks
            << ", first eviction +" << wave.first_eviction_ms
            << " ms, wave latency (last rack) +" << wave.wave_latency_ms
            << " ms, caps issued " << wave.caps_issued << "\n\n";

  const CadencePoint cold = RunCadence("cold", 0, quick);
  const CadencePoint coarse = RunCadence("coarse", Milliseconds(5), quick);
  const CadencePoint fine = RunCadence("fine", Milliseconds(1), quick);
  const double delta = cold.miss_fraction - fine.miss_fraction;
  std::cout << "cadence: correlated LaKe death wave at "
            << ToMilliseconds(kEventAt)
            << " ms; recovery lands on each rack's ToR NetCache program\n";
  PrintPoint(cold);
  PrintPoint(coarse);
  PrintPoint(fine);
  std::cout << "  delta (cold - fine) miss fraction: " << delta << "\n";

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
  json.Field("bench", "row");
  json.Field("build_type", bench::BuildTypeName());
  json.Field("quick", quick);
  json.BeginObject("wave");
  json.Field("racks", static_cast<uint64_t>(kRacks));
  json.Field("brownout_at_ms", ToMilliseconds(kEventAt));
  json.Field("budget_before_watts", kBudgetWatts);
  json.Field("budget_after_watts", kBrownoutWatts);
  json.Field("racks_evicted", static_cast<uint64_t>(wave.racks_evicted));
  json.Field("first_eviction_ms", wave.first_eviction_ms);
  json.Field("wave_latency_ms", wave.wave_latency_ms);
  json.Field("caps_issued", wave.caps_issued);
  json.Field("apportion_rounds", wave.apportion_rounds);
  json.EndObject();
  json.BeginObject("cadence");
  json.Field("racks", static_cast<uint64_t>(kRacks));
  json.Field("kill_at_ms", ToMilliseconds(kEventAt));
  json.BeginArray("points");
  for (const CadencePoint* point : {&cold, &coarse, &fine}) {
    json.BeginObject();
    json.Field("label", point->label);
    json.Field("checkpoint_period_ms", point->checkpoint_period_ms);
    json.Field("miss_fraction", point->miss_fraction);
    json.Field("hits", point->hits);
    json.Field("misses", point->misses);
    json.Field("checkpoints", point->checkpoints);
    json.Field("warm_recoveries", static_cast<uint64_t>(point->warm_recoveries));
    json.Field("detection_ms", point->detection_ms);
    json.EndObject();
  }
  json.EndArray();
  json.Field("cold_miss_fraction", cold.miss_fraction);
  json.Field("fine_miss_fraction", fine.miss_fraction);
  json.Field("delta_miss_fraction", delta);
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
      std::cerr << "usage: bench_row [--quick] [--out PATH]\n";
      return 2;
    }
  }
  return Run(quick, out_path);
}
