#include "src/row/row_scenario.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/ondemand/energy_advisor.h"
#include "src/workload/arrival.h"

namespace incod {

namespace {

// §8 models every orchestrated member is priced with: its host's curve at a
// 4 µs service time, and a LaKe board beside the host's 35 W idle draw.
constexpr SimDuration kHostServiceTime = Microseconds(4);
constexpr double kHostIdleWatts = 35.0;
constexpr double kBoardIdleWatts = 24.0;
constexpr double kBoardDynamicWatts = 1.0;
constexpr double kBoardCapacityPps = 13e6;
// Watts one trace background core adds to a member host (§9.3).
constexpr double kBackgroundWattsPerCore = 18.0;

}  // namespace

RowScenario::RowScenario(ShardedSimulation& sharded, RowSpec spec)
    : sharded_(sharded),
      spec_(std::move(spec)),
      spine_topology_(sharded.shard(static_cast<int>(spec_.racks.size()))) {
  Validate();
  zone_.FillSynthetic(spec_.zone_size);

  const int spine = static_cast<int>(spec_.racks.size());
  spine_ = std::make_unique<L2Switch>(sharded_.shard(spine),
                                      spec_.name + "-spine");
  spine_topology_.SetSharded(&sharded_, spine);
  spine_topology_.AssignShard(spine_.get(), spine);

  racks_.reserve(spec_.racks.size());
  for (int r = 0; r < static_cast<int>(spec_.racks.size()); ++r) {
    BuildRack(r);
  }
  for (int r = 0; r < num_racks(); ++r) {
    ConnectRackToSpine(r);
  }
  for (int r = 0; r < num_racks(); ++r) {
    if (spec_.racks[static_cast<size_t>(r)].orchestrate) {
      BuildOrchestration(r);
    }
  }
  BuildRow();
  ArmRowFaults();

  if (spec_.trace.enabled) {
    Rng rng(spec_.trace.seed);
    tasks_ = SynthesizeGoogleTrace(spec_.trace.trace, rng);
  }
}

void RowScenario::Validate() const {
  if (spec_.racks.empty()) {
    throw std::invalid_argument("RowScenario: need at least one rack");
  }
  if (sharded_.num_shards() != static_cast<int>(spec_.racks.size()) + 1) {
    throw std::invalid_argument(
        "RowScenario: need racks + 1 shards (one per rack plus the spine)");
  }
  if (spec_.inter_rack_propagation <= 0) {
    throw std::invalid_argument("RowScenario: inter-rack propagation must be > 0");
  }
  const int n = static_cast<int>(spec_.racks.size());
  for (const RowFaultEventSpec& event : spec_.faults.events) {
    for (int rack : event.racks) {
      if (rack < 0 || rack >= n) {
        throw std::invalid_argument("RowScenario: fault event rack out of range");
      }
    }
    if (event.kind == RowFaultEventSpec::Kind::kRackFault &&
        event.rack_event.kind == FaultKind::kPsuBrownout) {
      // Row racks install no power-cap handler: it would be a silent no-op.
      throw std::invalid_argument(
          "RowScenario: a rack PSU brownout is a kRackBrownout event, not a "
          "forwarded kRackFault");
    }
    const bool brownout = event.kind == RowFaultEventSpec::Kind::kGlobalBrownout ||
                          event.kind == RowFaultEventSpec::Kind::kRackBrownout;
    if (brownout && spec_.power.global_budget_watts <= 0) {
      throw std::invalid_argument(
          "RowScenario: brownout events need a global power budget");
    }
  }
  if (spec_.power.global_budget_watts > 0) {
    const bool any_orchestrated =
        std::any_of(spec_.racks.begin(), spec_.racks.end(),
                    [](const RowRackSpec& rack) { return rack.orchestrate; });
    if (!any_orchestrated) {
      throw std::invalid_argument(
          "RowScenario: a global budget needs at least one orchestrated rack");
    }
  }
}

std::vector<int> RowScenario::SelectedRacks(const RowFaultEventSpec& event) const {
  if (!event.racks.empty()) {
    return event.racks;
  }
  std::vector<int> all(spec_.racks.size());
  for (int r = 0; r < static_cast<int>(all.size()); ++r) {
    all[static_cast<size_t>(r)] = r;
  }
  return all;
}

void RowScenario::BuildRack(int r) {
  const RowRackSpec& rack_spec = spec_.racks[static_cast<size_t>(r)];
  ScenarioSpec scenario = rack_spec.scenario;
  scenario.shard = r;
  if (scenario.env.zone == nullptr) {
    scenario.env.zone = &zone_;
  }
  // Fold the row plan's rack-scoped faults into this rack's own plan; the
  // testbed's injector arms them with its locally-registered names.
  for (const RowFaultEventSpec& event : spec_.faults.events) {
    if (event.kind != RowFaultEventSpec::Kind::kRackFault) {
      continue;
    }
    const std::vector<int> selected = SelectedRacks(event);
    if (std::find(selected.begin(), selected.end(), r) == selected.end()) {
      continue;
    }
    FaultEventSpec fault = event.rack_event;
    fault.at = event.at;
    scenario.faults.events.push_back(fault);
  }
  const Zone* zone = scenario.env.zone;

  BuiltRack built;
  built.testbed = std::make_unique<ScenarioTestbed>(sharded_, std::move(scenario));
  for (const RowClientSpec& client_spec : rack_spec.clients) {
    RequestFactory factory =
        MakeScenarioRequestFactory(client_spec.workload, client_spec.service, zone);
    if (factory == nullptr) {
      throw std::invalid_argument("RowScenario: rack " + std::to_string(r) +
                                  " client needs a workload kind");
    }
    built.clients.push_back(&built.testbed->AddTorClient(
        client_spec.client,
        std::make_unique<PoissonArrival>(client_spec.rate_per_second),
        std::move(factory), client_spec.shard));
  }
  racks_.push_back(std::move(built));
}

void RowScenario::ConnectRackToSpine(int r) {
  BuiltRack& built = racks_[static_cast<size_t>(r)];
  L2Switch* tor = built.testbed->tor();
  if (tor == nullptr) {
    throw std::invalid_argument("RowScenario: rack " + std::to_string(r) +
                                " needs a ToR (tor.present) to uplink");
  }
  spine_topology_.AssignShard(tor, r);

  Link::Config uplink;
  uplink.gigabits_per_second = spec_.uplink_gigabits_per_second;
  uplink.propagation_delay = spec_.inter_rack_propagation;
  built.uplink = spine_topology_.Connect(tor, spine_.get(), uplink,
                                         "uplink-" + std::to_string(r));

  const int tor_port = tor->AttachLink(built.uplink);
  tor->SetDefaultRoute(tor_port);  // Non-local traffic heads to the spine.

  const int spine_port = spine_->AttachLink(built.uplink);
  // Route every address this rack owns: member switch routes (hosts,
  // devices, service addresses), aux hosts, and the rack's clients.
  std::vector<NodeId> nodes;
  auto add = [&nodes](NodeId node) {
    if (node != 0 && std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
      nodes.push_back(node);
    }
  };
  const RowRackSpec& rack_spec = spec_.racks[static_cast<size_t>(r)];
  for (const ScenarioMemberSpec& member : rack_spec.scenario.members) {
    for (NodeId node : member.switch_routes) {
      add(node);
    }
    if (member.aux) {
      add(member.host.config.node);
    }
  }
  for (const RowClientSpec& client_spec : rack_spec.clients) {
    add(client_spec.client.node);
  }
  for (NodeId node : nodes) {
    spine_->AddRoute(node, spine_port);
  }
}

void RowScenario::BuildOrchestration(int r) {
  const RowRackSpec& rack_spec = spec_.racks[static_cast<size_t>(r)];
  BuiltRack& built = racks_[static_cast<size_t>(r)];
  ScenarioTestbed& testbed = *built.testbed;
  built.orchestrator =
      std::make_unique<RackOrchestrator>(sharded_.shard(r), rack_spec.orchestrator);

  for (const RowAppSpec& app_spec : rack_spec.apps) {
    const ServerConfig& host = testbed.spec().members.at(app_spec.member).host.config;
    RowManagedApp& managed = built.apps.emplace_back();
    const double* background = &managed.background_cores;
    auto curve = MakeServerRatePower(host.power_curve, kHostServiceTime, host.num_cores);
    RackAppSpec rack_app;
    // The trace's background tasks raise the host side of the decision:
    // offload pays exactly while the node is contended (§9.3).
    rack_app.software_watts = [background, curve](double rate) {
      return curve(rate) + 4.0 + *background * kBackgroundWattsPerCore;
    };
    const size_t first_migrator = built.migrators.size();
    managed.rack_index = OrchestrateMember(
        testbed, app_spec.member, std::move(rack_app),
        MakeFpgaRatePower(kHostIdleWatts, kBoardIdleWatts, kBoardDynamicWatts,
                          kBoardCapacityPps),
        app_spec.switch_option, *built.orchestrator, built.migrators);
    managed.migrator = built.migrators[first_migrator].get();
  }
}

void RowScenario::BuildRow() {
  if (spec_.power.global_budget_watts <= 0) {
    return;
  }
  row_ = std::make_unique<RowOrchestrator>(sharded_, spine_shard(), spec_.power);
  for (int r = 0; r < num_racks(); ++r) {
    BuiltRack& built = racks_[static_cast<size_t>(r)];
    if (built.orchestrator == nullptr) {
      continue;
    }
    built.row_index = static_cast<int>(row_->AddRack(
        built.testbed->spec().name, r, built.orchestrator.get()));
  }
}

void RowScenario::ArmRowFaults() {
  Simulation& home = sharded_.shard(spine_shard());
  for (const RowFaultEventSpec& event : spec_.faults.events) {
    switch (event.kind) {
      case RowFaultEventSpec::Kind::kRackFault:
        break;  // Folded into the rack specs in BuildRack.
      case RowFaultEventSpec::Kind::kUplinkDown:
        for (int r : SelectedRacks(event)) {
          racks_[static_cast<size_t>(r)].uplink->ScheduleDown(event.at);
        }
        break;
      case RowFaultEventSpec::Kind::kUplinkUp:
        for (int r : SelectedRacks(event)) {
          racks_[static_cast<size_t>(r)].uplink->ScheduleUp(event.at);
        }
        break;
      case RowFaultEventSpec::Kind::kGlobalBrownout: {
        const double watts = event.watts;
        home.ScheduleAt(event.at,
                        [this, watts] { row_->ApplyGlobalBrownout(watts); });
        break;
      }
      case RowFaultEventSpec::Kind::kRackBrownout:
        for (int r : SelectedRacks(event)) {
          const int row_index = racks_[static_cast<size_t>(r)].row_index;
          if (row_index < 0) {
            throw std::invalid_argument(
                "RowScenario: rack brownout targets a rack the row does not "
                "orchestrate");
          }
          const double watts = event.watts;
          home.ScheduleAt(event.at, [this, row_index, watts] {
            row_->ApplyRackBrownout(static_cast<size_t>(row_index), watts);
          });
        }
        break;
    }
  }
}

void RowScenario::ScheduleTracePlayback() {
  if (!spec_.trace.enabled) {
    return;
  }
  const int64_t horizon = spec_.trace.trace.horizon_seconds;
  if (horizon <= 0 || spec_.trace.sim_horizon <= 0) {
    return;
  }
  const double scale =
      static_cast<double>(spec_.trace.sim_horizon) / static_cast<double>(horizon);
  // Phase-shift each rack through the diurnal day so racks peak at
  // staggered times — the load imbalance the demand-weighted global
  // apportionment exists to exploit.
  const int64_t shift_step = horizon / num_racks();
  for (int r = 0; r < num_racks(); ++r) {
    BuiltRack& built = racks_[static_cast<size_t>(r)];
    if (built.apps.empty()) {
      continue;
    }
    Simulation& sim = sharded_.shard(r);
    for (const TraceTask& task : tasks_) {
      const size_t app = task.node % built.apps.size();
      const int64_t wrapped =
          (task.start_seconds + static_cast<int64_t>(r) * shift_step) % horizon;
      // Tasks whose shifted window crosses the day boundary are truncated at
      // the horizon (their tail would belong to the next day).
      const int64_t end_seconds = std::min(horizon, wrapped + task.duration_seconds);
      const SimDuration start =
          static_cast<SimDuration>(static_cast<double>(wrapped) * scale);
      const SimDuration end =
          static_cast<SimDuration>(static_cast<double>(end_seconds) * scale);
      double* background = &built.apps[app].background_cores;
      const double cores = task.cpu_cores;
      sim.Schedule(start, [background, cores] { *background += cores; });
      sim.Schedule(std::max(end, start + 1),
                   [background, cores] { *background -= cores; });
    }
  }
}

void RowScenario::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  ScheduleTracePlayback();
  for (BuiltRack& built : racks_) {
    for (LoadClient* client : built.clients) {
      client->Start();
    }
  }
  for (BuiltRack& built : racks_) {
    if (built.orchestrator != nullptr) {
      built.orchestrator->Start();
    }
  }
  if (row_ != nullptr) {
    row_->Start();
  }
}

uint64_t RowScenario::TotalSent() const {
  uint64_t total = 0;
  for (const BuiltRack& built : racks_) {
    for (const LoadClient* client : built.clients) {
      total += client->sent();
    }
  }
  return total;
}

uint64_t RowScenario::TotalReceived() const {
  uint64_t total = 0;
  for (const BuiltRack& built : racks_) {
    for (const LoadClient* client : built.clients) {
      total += client->received();
    }
  }
  return total;
}

}  // namespace incod
