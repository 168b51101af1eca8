// Declarative scenario description, consumed by TestbedBuilder.
//
// A ScenarioSpec is a struct literal naming *what* a testbed contains —
// deployments of registry-named applications, an optional ToR, workload,
// fault plan — and ScenarioTestbed turns it into a wired topology. Every
// deployment is a member (host, ingress device, offload placement), so the
// paper's §4.1 chain (client -- device -- host) is a ToR-less spec with one
// member whose ingress device takes the client link:
//
//   ScenarioSpec spec;
//   ScenarioMemberSpec& kvs = spec.members.emplace_back();
//   kvs.host.apps = {"kvs"};
//   kvs.target.kind = ScenarioTargetKind::kFpgaNic;
//   kvs.target.app = "kvs";                   // LaKe, via the AppRegistry
//   ScenarioTestbed testbed(sim, spec);
//
// and the §9 rack is the same members hanging off a ToR (tor.present). The
// KVS and DNS testbeds, the Fig 3/4/6 benches, the mixed rack and every row
// rack share this one build path. Apps are created through AppRegistry, so
// a new application reaches every spec-built scenario by registering one
// factory. OrchestrateMember hands a built member to a RackOrchestrator;
// the mixed rack and every orchestrated row rack share that one wiring.
#ifndef INCOD_SRC_SCENARIOS_SCENARIO_SPEC_H_
#define INCOD_SRC_SCENARIOS_SCENARIO_SPEC_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/app/app_registry.h"
#include "src/device/switch_offload.h"
#include "src/fault/fault_injector.h"
#include "src/ondemand/rack.h"
#include "src/scenarios/testbed_builder.h"

namespace incod {

enum class ScenarioTargetKind { kNone, kConventionalNic, kFpgaNic, kSmartNic };

struct ScenarioHostSpec {
  bool present = true;
  ServerConfig config;  // Name, node, cores, power curve, stack.
  // Host-placement apps, by registry name, bound in order.
  std::vector<std::string> apps;
  bool metered = true;  // Joins the wall-meter set (§4.1 SHW-3A scope).
};

struct ScenarioTargetSpec {
  ScenarioTargetKind kind = ScenarioTargetKind::kConventionalNic;
  std::string name = "nic";
  NodeId device_node = 0;
  bool standalone = false;  // FPGA NIC without a host (own PSU).
  bool intel_nic = false;   // Conventional NIC: Intel X520 vs Mellanox.
  // Offload-placement app by registry name ("" = bare NIC). Built for the
  // kFpgaNic placement on an FPGA NIC, kSmartNic on a SmartNIC.
  std::string app;
  bool initially_active = true;
  // SmartNIC board, by StandardSmartNicPresets() name (§10 architectures).
  std::string smartnic_preset = "accelnet-fpga";
  Link::Config pcie = TestbedBuilder::PcieLink();
  bool metered = true;
};

// Declarative ToR for switch-centric scenarios: a plain L2 switch (Paxos
// group) or a programmable ASIC (mixed rack) that members hang off.
struct ScenarioTorSpec {
  bool present = false;
  bool asic = false;  // Tofino-class SwitchAsic vs plain L2Switch.
  std::string name = "tor";
  SwitchAsicConfig asic_config;  // Used when asic (name overridden below).
  bool metered = false;          // ASIC only; an L2 switch draws no modeled power.
};

// One deployment: an optional host with registry apps, an optional ingress
// device (conventional NIC, FPGA NIC, or SmartNIC, possibly carrying an
// offload placement of the same app), and optionally a switch-hosted
// placement loaded into the ASIC pipeline. It hangs off the scenario ToR,
// or — in a ToR-less spec — its ingress device takes the client link. Dual
// deployments (Fig 7's software + P4xos leader on one host/NIC pair) are
// expressed by filling both host.apps and target.app with
// target.initially_active=false.
struct ScenarioMemberSpec {
  std::string name;      // Diagnostics / member lookup.
  ScenarioHostSpec host;
  ScenarioTargetSpec target;
  // Aux host: never bottlenecks, never metered, auto-wired to the ToR
  // (acceptors, learners). Needs a ToR; must not carry a target.
  bool aux = false;
  int aux_cores = 4;
  // Nodes routed to this member's switch port (host node, device node,
  // service addresses). Aux members route their host node automatically.
  std::vector<NodeId> switch_routes;
  Link::Config switch_link = TestbedBuilder::TenGigLink();
  // Name of the member's network link (the ToR link, or the client link in
  // a ToR-less spec); its PCIe hop is "<link_name>-pcie".
  std::string link_name = "10ge";
  // Registry app loaded into the ASIC pipeline (kSwitchAsic placement),
  // wrapped in a SwitchOffloadTarget for migrators/orchestrators.
  std::string switch_app;
  // Per-member factory resources/knobs (role ids, per-app configs). A null
  // zone/paxos_group inherits the spec-level resource.
  AppFactoryEnv env;
};

// Declarative workload: an open-loop client against the scenario's service.
struct ScenarioWorkloadSpec {
  enum class Kind { kNone, kKvUniformGets, kDnsQueries };
  Kind kind = Kind::kNone;
  double rate_per_second = 100000;
  uint64_t keyspace = 1000;          // kKvUniformGets.
  double dns_miss_fraction = 0.0;    // kDnsQueries.
  // kKvUniformGets cross-service traffic (multi-rack rows): when
  // cross_service != 0, each request draws its key and then an independent
  // cross decision — with probability cross_fraction the get targets
  // cross_service instead of the local service. The extra draw happens on
  // *every* request of the stream (even at fraction 0), so sharded and
  // single-queue runs of the same seed stay stream-identical.
  NodeId cross_service = 0;
  double cross_fraction = 0.0;
  LoadClientConfig client;
};

// Rack-wide congestion-control knobs, applied to the spec at Build(). When
// `enabled`, every built link (client uplinks, member ToR links, PCIe hops)
// gets the PFC/ECN template below, every built server pauses its uplink at
// the host rx watermarks and CNPs ECN-marked ingress, and — unless dcqcn is
// cleared — every attached LoadClient runs the DCQCN rate machine. Overload
// then produces pause propagation, head-of-line blocking and sender
// slowdown instead of silent queue-overflow loss.
struct ScenarioFlowSpec {
  bool enabled = false;
  bool dcqcn = true;     // Give clients the rate machine (plus host CNPs).
  LinkFlowConfig link;   // Template; pfc/ecn are forced on when enabled.
  HostFlowConfig host;   // Template; pfc (and cnp, per dcqcn) forced on.
  DcqcnConfig dcqcn_config;  // Template; `enabled` forced on per dcqcn.
};

// Opt-in mechanistic host-NIC datapath, applied at Build(). When `enabled`,
// every conventional-NIC member gets the HostNicSpec datapath (RSS
// rx rings, interrupt moderation toward kernel hosts / poll draining toward
// DPDK hosts, tx doorbell batching — host_interrupts is derived from each
// host's NetStackType), and every built server switches to the `dispatch`
// worker policy with the per-interrupt CPU cost below. FPGA/SmartNIC
// ingress keeps its own pipeline model; only their hosts pick up the
// dispatch change. Off by default, so existing scenarios keep their event
// streams bit-identical (the PR 9 flow-spec pattern).
struct ScenarioHostNicSpec {
  bool enabled = false;
  HostNicSpec nic;  // Template; `enabled`/`host_interrupts` are overridden.
  // kRssHash is the mechanistic default; kIdealLb keeps the idealized
  // least-loaded dispatch for differential runs against it.
  HostDispatch dispatch = HostDispatch::kRssHash;
  SimDuration interrupt_cpu_cost = Microseconds(1);
};

struct ScenarioSpec {
  std::string name = "scenario";
  SimDuration meter_period = Milliseconds(1);
  // Home shard when built into a ShardedSimulation: the ToR, members, meter
  // and any migrators live here. Clients may be placed in other shards via
  // AddTorClient's shard argument. Ignored for plain Simulation builds.
  int shard = 0;
  Link::Config client_link = TestbedBuilder::TenGigLink();
  ScenarioFlowSpec flow;
  ScenarioHostNicSpec hostnic;
  // Accepted only on a ToR-less spec: attached to the member's ingress.
  ScenarioWorkloadSpec workload;
  // Shared factory resources: members inherit zone and paxos_group.
  AppFactoryEnv env;
  // With tor.present, `members` hang off the ToR; without, there must be
  // exactly one member, and its ingress device takes the client link.
  ScenarioTorSpec tor;
  std::vector<ScenarioMemberSpec> members;
  // Owned Paxos group, so switch-centric specs are self-contained literals:
  // member envs with a null paxos_group resolve against this.
  std::optional<PaxosGroupConfig> paxos_group;
  // Declarative fault plan, armed at the end of Build(). Names resolve
  // against what the testbed registered: every built server / ToR by its
  // SinkName (whole-node death), every offload-capable device by both its
  // TargetName ("device/app") and bare device name (engine death — the
  // device keeps forwarding), and every member link by its link_name (plus
  // "<link_name>-pcie" for the PCIe hops).
  FaultPlanSpec faults;
};

// A built member: the components and registry-created apps of one
// ScenarioMemberSpec (null/empty where the spec lacked the part).
struct ScenarioMember {
  std::string name;
  Server* server = nullptr;
  FpgaNic* fpga = nullptr;
  ConventionalNic* nic = nullptr;
  SmartNic* smartnic = nullptr;
  // ToR port of the member's ingress device (-1: aux-wired or ToR-less).
  int port = -1;
  std::vector<std::unique_ptr<App>> host_apps;
  std::unique_ptr<App> offload_app;
  // Switch-hosted placement (when spec.switch_app was set).
  std::unique_ptr<App> switch_program_app;
  std::unique_ptr<SwitchOffloadTarget> switch_target;
};

// Request factory for a declarative workload kind against `service` — wire
// messages only, no app types involved. Null for Kind::kNone.
RequestFactory MakeScenarioRequestFactory(const ScenarioWorkloadSpec& workload,
                                          NodeId service, const Zone* zone);

// A testbed built from a spec. Owns the registry-created apps and
// everything TestbedBuilder owns.
class ScenarioTestbed {
 public:
  ScenarioTestbed(Simulation& sim, ScenarioSpec spec);

  // Sharded build: everything lands in spec.shard of the ShardedSimulation
  // (clients may override per AddTorClient). sim() then returns that shard.
  ScenarioTestbed(ShardedSimulation& sharded, ScenarioSpec spec);

  Simulation& sim() { return sim_; }
  const ScenarioSpec& spec() const { return spec_; }
  TestbedBuilder& builder() { return builder_; }
  WallPowerMeter& meter() { return builder_.meter(); }

  // The AddClient client; null until one is attached.
  LoadClient* client() { return client_; }
  // Always present: the spec's fault plan was armed against it at Build();
  // callers may register more entities (or a power-cap handler) afterwards.
  FaultInjector& faults() { return *faults_; }

  // --- Topology (spec.tor / spec.members) ---
  L2Switch* tor() { return tor_; }
  SwitchAsic* tor_asic() { return tor_asic_; }  // Null for a plain L2 ToR.
  size_t member_count() const { return members_.size(); }
  ScenarioMember& member(size_t index) { return members_.at(index); }
  // First member with the given spec name; throws when absent.
  ScenarioMember& member(const std::string& name);
  template <typename T>
  T* member_host_app_as(size_t index, size_t app_index = 0) {
    auto& apps = members_.at(index).host_apps;
    return app_index < apps.size() ? dynamic_cast<T*>(apps[app_index].get()) : nullptr;
  }
  template <typename T>
  T* member_offload_app_as(size_t index) {
    return dynamic_cast<T*>(members_.at(index).offload_app.get());
  }

  // Address clients should target: member 0's host node, or its device
  // when hostless.
  NodeId ServiceNode() const;

  // ToR-less specs: attaches the (single) open-loop client to member 0's
  // ingress device. The spec's workload (if any) was already attached at
  // construction.
  LoadClient& AddClient(LoadClientConfig config, std::unique_ptr<ArrivalProcess> arrival,
                        RequestFactory factory);
  // Switch-centric scenarios: attaches an open-loop client to the ToR
  // (config.node becomes its address; several clients may attach). `shard`
  // >= 0 places the client in that shard of a sharded build, making its ToR
  // link a cross-shard boundary.
  LoadClient& AddTorClient(LoadClientConfig config,
                           std::unique_ptr<ArrivalProcess> arrival,
                           RequestFactory factory, int shard = -1);

 private:
  void Build();
  // Stamps spec_.flow onto every link/host config before building.
  void ApplyFlowSpec();
  // Gives a client the spec's DCQCN rate machine when flow control is on
  // with dcqcn and the client has none of its own.
  void ApplyDcqcn(LoadClientConfig& config) const;
  // Stamps spec_.hostnic onto every host config before building (the NIC
  // side is resolved per conventional-NIC member in BuildMember, where the
  // host's stack type is known).
  void ApplyHostNicSpec();
  // spec_.hostnic resolved against one host's stack type.
  HostNicSpec ResolveHostNic(const ServerConfig& host_config) const;
  void BuildWorkload();
  void BuildTor();
  void BuildMember(const ScenarioMemberSpec& member_spec);
  // Registers every built entity with the fault injector and arms the
  // spec's plan (last build step, so all names are resolvable).
  void BuildFaults();
  // Member env with null shared resources resolved against the spec level.
  AppFactoryEnv ResolveEnv(const AppFactoryEnv& env) const;

  Simulation& sim_;
  ScenarioSpec spec_;
  TestbedBuilder builder_;
  LoadClient* client_ = nullptr;
  L2Switch* tor_ = nullptr;
  SwitchAsic* tor_asic_ = nullptr;
  std::vector<ScenarioMember> members_;
  std::unique_ptr<FaultInjector> faults_;
};

// Registers built member `member` with `orchestrator` as one app named after
// it, and returns the app's orchestrator index. `app` carries the caller's
// host model and policies; everything else comes from what the member built:
//   * placements, in this order: the parked FPGA (when the member has one),
//     priced by `fpga_watts`; then, with `switch_option`, the ToR program,
//     priced as the idling host (app.software_watts(0), read once here) plus
//     the program's marginal pipeline watts (§9.4);
//   * migrators, appended to `migrators`: a PaxosLeaderMigrator for a
//     software + P4xos leader pair (the member's ToR port serves both, the
//     service address is env.service), else a gated-park core for the FPGA
//     and a keep-warm core for the ToR program;
//   * the measured rate: the sum of the placements' classifier-visible rates;
//   * heartbeats to the FPGA ride the member's link_name link, so a flapped
//     cable reads as unreachable, not dead.
// Throws std::invalid_argument when the member has no host app or no
// placement, or when `switch_option` is set without a switch target.
size_t OrchestrateMember(ScenarioTestbed& testbed, size_t member, RackAppSpec app,
                         RatePowerFn fpga_watts, bool switch_option,
                         RackOrchestrator& orchestrator,
                         std::vector<std::unique_ptr<StateTransferMigrator>>& migrators);

}  // namespace incod

#endif  // INCOD_SRC_SCENARIOS_SCENARIO_SPEC_H_
