// Declarative datacenter row: N ScenarioSpec racks under one spine, one
// global power budget, row-scale fault plans, diurnal trace load.
//
// A RowSpec is to a row what ScenarioSpec is to a rack: a struct literal
// naming what the row contains. RowScenario (row_scenario.h) turns it into
// a wired spine/leaf fabric over a ShardedSimulation — one shard per rack
// plus a spine shard — with per-rack RackOrchestrators reporting to a
// RowOrchestrator that apportions the shared datacenter budget
// (row_orchestrator.h). The rack specs themselves stay *unmodified*
// ScenarioSpecs: the row only assigns their shard, resolves their shared
// zone, and appends its rack-scoped fault events to their plans. An
// orchestrated rack names its managed members in RowAppSpecs; placements,
// migrators and rates all derive from what each member built.
#ifndef INCOD_SRC_ROW_ROW_SPEC_H_
#define INCOD_SRC_ROW_ROW_SPEC_H_

#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/ondemand/rack.h"
#include "src/row/row_orchestrator.h"
#include "src/scenarios/scenario_spec.h"
#include "src/workload/google_trace.h"

namespace incod {

// One open-loop client attached to a rack's ToR: a declarative workload
// (MakeScenarioRequestFactory, including the cross_service extension for
// rack-to-rack traffic through the spine) under Poisson arrivals.
struct RowClientSpec {
  LoadClientConfig client;  // client.node is the client's address.
  double rate_per_second = 100000;
  ScenarioWorkloadSpec workload;
  NodeId service = 0;  // Local service node the workload targets.
  int shard = -1;      // -1: the rack's own shard.
};

// One orchestrated member of a rack, wired by OrchestrateMember: the member
// needs a host app plus a parked FPGA placement (target.initially_active =
// false — the migrator parks), a switch option, or both. A software + P4xos
// leader pair gets the Paxos leader migrator. Shifts are cold; checkpoints
// follow the rack orchestrator config's cadence.
struct RowAppSpec {
  size_t member = 0;  // Index into the rack ScenarioSpec's members.
  // Offer the member's switch-hosted placement (spec.switch_app on an ASIC
  // ToR) after the FPGA — the surviving landing spot for recovery, or the
  // only placement of a member without an FPGA.
  bool switch_option = false;
};

struct RowRackSpec {
  // The rack itself, verbatim; the row assigns scenario.shard = rack index,
  // resolves a null env.zone to the row's shared zone, and appends
  // rack-scoped row fault events to scenario.faults before building.
  ScenarioSpec scenario;
  std::vector<RowClientSpec> clients;
  // Build a RackOrchestrator (+ migrators per RowAppSpec) in the rack's
  // shard. Its power budget is the row's initial apportionment when the row
  // has a global budget, else orchestrator.power_budget_watts.
  bool orchestrate = false;
  RackOrchestratorConfig orchestrator;
  std::vector<RowAppSpec> apps;
};

// Diurnal Google-trace load: one synthesized trace, phase-shifted per rack,
// whose per-node task timeline modulates member hosts' background draw.
struct RowTraceSpec {
  bool enabled = false;
  GoogleTraceConfig trace = {.num_tasks = 4000, .num_nodes = 4,
                             .diurnal_amplitude = 0.8};
  // The trace horizon is compressed onto this much simulated time.
  SimDuration sim_horizon = Seconds(10);
  uint64_t seed = 42;
  // Each rack is shifted horizon_seconds / num_racks further through the
  // diurnal day, so racks peak at staggered times — what makes a *global*
  // budget worth apportioning.
};

// One row-scale fault event. Rack-scoped kinds fan out over `racks`
// (empty: every rack), which is how correlated waves are declared.
struct RowFaultEventSpec {
  enum class Kind {
    // Step the row's global budget to `watts`; the ledger re-apportions and
    // the cap cascade evicts across every rack at once.
    kGlobalBrownout,
    // Brown out specific racks: cap their apportionment ceiling at `watts`
    // (< 0 clears the ceiling); the freed budget flows to the other racks.
    kRackBrownout,
    // Spine uplink flaps for the selected racks (Link::ScheduleDown/Up).
    kUplinkDown,
    kUplinkUp,
    // Forward an ordinary rack-level fault (device death, member link flap)
    // to each selected rack's own injector; rack_event's `at` is overridden
    // by this event's `at`. A rack PSU brownout is kRackBrownout: the row
    // rejects a forwarded kPsuBrownout, which no rack handler would apply.
    kRackFault,
  };
  Kind kind = Kind::kGlobalBrownout;
  SimTime at = 0;
  std::vector<int> racks;  // Rack-scoped kinds; empty = all racks.
  double watts = 0;        // kGlobalBrownout / kRackBrownout.
  FaultEventSpec rack_event;  // kRackFault.
};

struct RowFaultPlanSpec {
  std::vector<RowFaultEventSpec> events;
};

// --- Correlated-wave helpers -----------------------------------------------
// Each appends one event per selected rack, `stagger` apart in rack order
// (stagger 0: simultaneous — the fully correlated case).

// Spine-uplink flap wave: every selected rack's uplink goes down at
// first_down (+ stagger) and heals down_for later.
void AppendUplinkFlapWave(RowFaultPlanSpec& plan, const std::vector<int>& racks,
                          SimTime first_down, SimDuration down_for,
                          SimDuration stagger = 0);

// Whole-rack brownout wave: each selected rack's apportionment ceiling
// steps to `watts` (the global ledger shifts the freed budget to the rest).
void AppendRackBrownoutWave(RowFaultPlanSpec& plan, const std::vector<int>& racks,
                            SimTime first_at, double watts,
                            SimDuration stagger = 0);

// Correlated device-death wave: `target` (a per-rack fault-injector name,
// e.g. "rack-lake/kvs") dies in each selected rack.
void AppendDeviceDeathWave(RowFaultPlanSpec& plan, const std::vector<int>& racks,
                           const std::string& target, SimTime first_at,
                           SimDuration stagger = 0);

struct RowSpec {
  std::string name = "row";
  std::vector<RowRackSpec> racks;
  // Inter-rack fiber: the uplinks' propagation delay and therefore the
  // sharded engine's conservative lookahead. Must be > 0.
  SimDuration inter_rack_propagation = Microseconds(5);
  double uplink_gigabits_per_second = 40.0;
  // One synthetic zone shared by every rack whose spec leaves env.zone null.
  size_t zone_size = 2000;
  // Global power apportionment (<= 0 global_budget_watts: no row power
  // orchestration; racks keep their own budgets).
  RowOrchestratorConfig power;
  RowTraceSpec trace;
  RowFaultPlanSpec faults;
};

}  // namespace incod

#endif  // INCOD_SRC_ROW_ROW_SPEC_H_
