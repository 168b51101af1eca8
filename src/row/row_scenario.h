// RowSpec -> wired datacenter row over a ShardedSimulation.
//
// One shard per rack plus a spine shard; each rack is an unmodified
// ScenarioTestbed whose ToR uplinks to the spine (the uplink fiber is the
// engine lookahead). Orchestrated racks get a RackOrchestrator that
// OrchestrateMember hands each RowAppSpec member to, as in the mixed rack
// (FPGA, ToR-only and Paxos-leader members alike); the row adds only the
// host's §8 curve and the trace background term. Rack orchestrators report
// to a RowOrchestrator in the spine shard that apportions the global budget.
// Row fault plans arm as ordinary setup-time events (uplink flaps,
// global/rack brownouts, fanned-out rack faults), and the optional diurnal
// Google trace plays back phase-shifted per rack, modulating member hosts'
// background draw. Runs identically under Mode::kSingleQueue and
// Mode::kParallel — every row construct posts through the same
// deterministic cross-shard paths packets use.
#ifndef INCOD_SRC_ROW_ROW_SCENARIO_H_
#define INCOD_SRC_ROW_ROW_SCENARIO_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/dns/zone.h"
#include "src/net/switch.h"
#include "src/net/topology.h"
#include "src/row/row_orchestrator.h"
#include "src/row/row_spec.h"
#include "src/scenarios/scenario_spec.h"
#include "src/sim/sharded.h"

namespace incod {

class RowScenario {
 public:
  // Requires sharded.num_shards() == spec.racks.size() + 1 (racks + spine).
  RowScenario(ShardedSimulation& sharded, RowSpec spec);

  int num_racks() const { return static_cast<int>(racks_.size()); }
  int spine_shard() const { return num_racks(); }
  ShardedSimulation& sharded() { return sharded_; }
  const RowSpec& spec() const { return spec_; }
  const Zone& zone() const { return zone_; }

  ScenarioTestbed& rack(int r) { return *racks_.at(static_cast<size_t>(r)).testbed; }
  L2Switch& spine() { return *spine_; }
  Link& uplink(int r) { return *racks_.at(static_cast<size_t>(r)).uplink; }
  size_t client_count(int r) const {
    return racks_.at(static_cast<size_t>(r)).clients.size();
  }
  LoadClient& client(int r, size_t i) {
    return *racks_.at(static_cast<size_t>(r)).clients.at(i);
  }

  // Null when the rack is not orchestrated / the row has no global budget.
  RackOrchestrator* rack_orchestrator(int r) {
    return racks_.at(static_cast<size_t>(r)).orchestrator.get();
  }
  RowOrchestrator* row_orchestrator() { return row_.get(); }

  // Orchestrated apps of rack r, in RowRackSpec::apps order.
  size_t app_count(int r) const { return racks_.at(static_cast<size_t>(r)).apps.size(); }
  // The app's index inside the rack orchestrator.
  size_t orchestrator_index(int r, size_t app) const {
    return racks_.at(static_cast<size_t>(r)).apps.at(app).rack_index;
  }
  // The migrator onto the app's first placement (its FPGA, when it has one).
  StateTransferMigrator& migrator(int r, size_t app) {
    return *racks_.at(static_cast<size_t>(r)).apps.at(app).migrator;
  }
  // Background cores the trace currently runs on the app's host.
  double background_cores(int r, size_t app) const {
    return racks_.at(static_cast<size_t>(r)).apps.at(app).background_cores;
  }
  const std::vector<TraceTask>& trace_tasks() const { return tasks_; }

  // Starts trace playback, every client, every rack orchestrator, and the
  // row orchestrator (which applies the initial apportionment).
  void Start();

  uint64_t TotalSent() const;
  uint64_t TotalReceived() const;

 private:
  struct RowManagedApp {
    size_t rack_index = 0;  // Index inside the rack orchestrator.
    StateTransferMigrator* migrator = nullptr;  // First placement's.
    double background_cores = 0;  // Modulated by the trace playback.
  };
  struct BuiltRack {
    std::unique_ptr<ScenarioTestbed> testbed;
    std::vector<LoadClient*> clients;
    std::unique_ptr<RackOrchestrator> orchestrator;
    std::vector<std::unique_ptr<StateTransferMigrator>> migrators;
    // Deque: software_watts closures capture &background_cores, and deque
    // push_back never moves prior elements.
    std::deque<RowManagedApp> apps;
    Link* uplink = nullptr;
    int row_index = -1;  // Index inside the row orchestrator (-1: none).
  };

  void Validate() const;
  void BuildRack(int r);
  void ConnectRackToSpine(int r);
  void BuildOrchestration(int r);
  void BuildRow();
  void ArmRowFaults();
  std::vector<int> SelectedRacks(const RowFaultEventSpec& event) const;
  void ScheduleTracePlayback();

  ShardedSimulation& sharded_;
  RowSpec spec_;
  // One synthetic zone shared by every rack whose spec leaves env.zone null.
  // Filled once at construction and read-only afterwards, so cross-shard
  // sharing is safe.
  Zone zone_;
  std::unique_ptr<L2Switch> spine_;
  Topology spine_topology_;
  std::vector<BuiltRack> racks_;
  std::unique_ptr<RowOrchestrator> row_;
  std::vector<TraceTask> tasks_;
  bool started_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_ROW_ROW_SCENARIO_H_
