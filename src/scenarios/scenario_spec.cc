#include "src/scenarios/scenario_spec.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/device/switch_asic.h"
#include "src/dns/dns_message.h"
#include "src/kvs/kv_protocol.h"
#include "src/workload/dns_workload.h"

namespace incod {

namespace {

// The device a member's network link lands on; null for aux and device-less
// members.
NicPorts* Ingress(const ScenarioMember& member) {
  if (member.fpga != nullptr) {
    return member.fpga;
  }
  if (member.smartnic != nullptr) {
    return member.smartnic;
  }
  return member.nic;
}

}  // namespace

ScenarioTestbed::ScenarioTestbed(Simulation& sim, ScenarioSpec spec)
    : sim_(sim), spec_(std::move(spec)), builder_(sim, spec_.meter_period) {
  Build();
}

ScenarioTestbed::ScenarioTestbed(ShardedSimulation& sharded, ScenarioSpec spec)
    : sim_(sharded.shard(spec.shard)),
      spec_(std::move(spec)),
      builder_(sharded, spec_.shard, spec_.meter_period) {
  Build();
}

void ScenarioTestbed::ApplyFlowSpec() {
  if (!spec_.flow.enabled) {
    return;
  }
  LinkFlowConfig link_flow = spec_.flow.link;
  link_flow.pfc = true;
  link_flow.ecn = true;
  HostFlowConfig host_flow = spec_.flow.host;
  host_flow.pfc = true;
  host_flow.cnp = spec_.flow.dcqcn;
  spec_.client_link.flow = link_flow;
  for (auto& member : spec_.members) {
    member.switch_link.flow = link_flow;
    member.target.pcie.flow = link_flow;
    member.host.config.flow = host_flow;
  }
}

void ScenarioTestbed::ApplyDcqcn(LoadClientConfig& config) const {
  if (spec_.flow.enabled && spec_.flow.dcqcn && !config.dcqcn.enabled) {
    config.dcqcn = spec_.flow.dcqcn_config;
    config.dcqcn.enabled = true;
  }
}

void ScenarioTestbed::ApplyHostNicSpec() {
  if (!spec_.hostnic.enabled) {
    return;
  }
  const auto stamp = [this](ServerConfig& config) {
    config.dispatch = spec_.hostnic.dispatch;
    config.interrupt_cpu_cost = spec_.hostnic.interrupt_cpu_cost;
  };
  for (ScenarioMemberSpec& member : spec_.members) {
    stamp(member.host.config);
  }
}

HostNicSpec ScenarioTestbed::ResolveHostNic(const ServerConfig& host_config) const {
  HostNicSpec nic = spec_.hostnic.nic;
  nic.enabled = true;
  nic.host_interrupts = host_config.stack == NetStackType::kKernel;
  return nic;
}

void ScenarioTestbed::Build() {
  if (!spec_.tor.present && spec_.members.size() != 1) {
    throw std::invalid_argument(
        "ScenarioSpec: a spec without a ToR needs exactly one member");
  }
  ApplyFlowSpec();
  ApplyHostNicSpec();
  if (spec_.tor.present) {
    BuildTor();
  }
  members_.reserve(spec_.members.size());
  for (const ScenarioMemberSpec& member_spec : spec_.members) {
    BuildMember(member_spec);
  }
  builder_.StartMeter();
  BuildWorkload();
  BuildFaults();
}

AppFactoryEnv ScenarioTestbed::ResolveEnv(const AppFactoryEnv& env) const {
  AppFactoryEnv resolved = env;
  if (resolved.zone == nullptr) {
    resolved.zone = spec_.env.zone;
  }
  if (resolved.paxos_group == nullptr) {
    resolved.paxos_group =
        spec_.paxos_group.has_value() ? &*spec_.paxos_group : spec_.env.paxos_group;
  }
  return resolved;
}

void ScenarioTestbed::BuildTor() {
  if (spec_.tor.asic) {
    SwitchAsicConfig config = spec_.tor.asic_config;
    config.name = spec_.tor.name;
    tor_asic_ = builder_.AddSwitchAsic(config, spec_.tor.metered);
    tor_ = tor_asic_;
    return;
  }
  tor_ = builder_.AddL2Switch(spec_.tor.name);
}

void ScenarioTestbed::BuildMember(const ScenarioMemberSpec& member_spec) {
  const AppFactoryEnv env = ResolveEnv(member_spec.env);
  ScenarioMember built;
  built.name = member_spec.name;

  if (tor_ == nullptr &&
      (member_spec.aux || member_spec.target.kind == ScenarioTargetKind::kNone)) {
    throw std::invalid_argument("ScenarioSpec: member " + member_spec.name +
                                " needs an ingress device for the client link");
  }
  if (member_spec.aux) {
    if (member_spec.target.kind != ScenarioTargetKind::kNone ||
        !member_spec.switch_app.empty()) {
      throw std::invalid_argument("ScenarioSpec: aux member " + member_spec.name +
                                  " cannot carry a target or switch app");
    }
    built.server = builder_.AddAuxServer(tor_, member_spec.host.config.node,
                                         member_spec.host.config.name,
                                         member_spec.aux_cores);
  } else if (member_spec.host.present) {
    built.server = builder_.AddServer(member_spec.host.config, member_spec.host.metered);
  }
  if (built.server != nullptr) {
    for (const std::string& app_name : member_spec.host.apps) {
      auto app = AppRegistry::Global().Create(app_name, PlacementKind::kHost, env);
      built.server->BindApp(app.get());
      built.host_apps.push_back(std::move(app));
    }
  }

  // A ToR-less member's ingress waits for AddClient.
  const auto connect_tor = [&](NicPorts* ingress) {
    if (tor_ != nullptr) {
      built.port = builder_.ConnectToSwitchPort(tor_, ingress, member_spec.switch_routes,
                                                member_spec.switch_link,
                                                member_spec.link_name);
    }
  };
  switch (member_spec.target.kind) {
    case ScenarioTargetKind::kNone:
      if (built.server != nullptr && !member_spec.aux) {
        throw std::invalid_argument("ScenarioSpec: member " + member_spec.name +
                                    " host needs an ingress device (or aux)");
      }
      break;
    case ScenarioTargetKind::kConventionalNic: {
      if (built.server == nullptr) {
        throw std::invalid_argument("ScenarioSpec: member " + member_spec.name +
                                    " conventional NIC needs a host");
      }
      ConventionalNicConfig nic_config =
          member_spec.target.intel_nic
              ? IntelX520Config(member_spec.host.config.node)
              : MellanoxConnectX3Config(member_spec.host.config.node);
      if (!member_spec.target.name.empty()) {
        nic_config.name = member_spec.target.name;
      }
      if (spec_.hostnic.enabled) {
        nic_config.hostnic = ResolveHostNic(member_spec.host.config);
      }
      built.nic = builder_.AddConventionalNic(nic_config, member_spec.target.metered);
      connect_tor(built.nic);
      builder_.ConnectPcie(built.nic, built.server, member_spec.target.pcie,
                           member_spec.link_name + "-pcie");
      break;
    }
    case ScenarioTargetKind::kFpgaNic: {
      FpgaNicConfig fpga_config;
      fpga_config.name = member_spec.target.name.empty() ? "netfpga"
                                                         : member_spec.target.name;
      fpga_config.host_node = member_spec.host.config.node;
      fpga_config.device_node = member_spec.target.device_node;
      fpga_config.standalone = member_spec.target.standalone;
      if (!member_spec.target.app.empty()) {
        built.offload_app = AppRegistry::Global().Create(
            member_spec.target.app, PlacementKind::kFpgaNic, env);
      }
      built.fpga = builder_.AddFpgaNic(fpga_config, built.offload_app.get(),
                                       member_spec.target.metered);
      if (built.offload_app != nullptr) {
        built.fpga->SetAppActive(member_spec.target.initially_active);
      }
      connect_tor(built.fpga);
      if (built.server != nullptr) {
        builder_.ConnectPcie(built.fpga, built.server, member_spec.target.pcie,
                             member_spec.link_name + "-pcie");
      }
      break;
    }
    case ScenarioTargetKind::kSmartNic: {
      if (built.server == nullptr) {
        throw std::invalid_argument("ScenarioSpec: member " + member_spec.name +
                                    " SmartNIC needs a host");
      }
      SmartNicDeviceConfig nic_config;
      nic_config.name = member_spec.target.name.empty() ? "smartnic"
                                                        : member_spec.target.name;
      nic_config.host_node = member_spec.host.config.node;
      nic_config.device_node = member_spec.target.device_node;
      if (!member_spec.target.app.empty()) {
        built.offload_app = AppRegistry::Global().Create(
            member_spec.target.app, PlacementKind::kSmartNic, env);
      }
      built.smartnic = builder_.AddSmartNic(
          SmartNicPresetByName(member_spec.target.smartnic_preset), nic_config,
          member_spec.target.metered);
      if (built.offload_app != nullptr) {
        built.smartnic->InstallApp(built.offload_app.get());
        built.smartnic->SetAppActive(member_spec.target.initially_active);
      }
      connect_tor(built.smartnic);
      builder_.ConnectPcie(built.smartnic, built.server, member_spec.target.pcie,
                           member_spec.link_name + "-pcie");
      break;
    }
  }

  if (!member_spec.switch_app.empty()) {
    if (tor_asic_ == nullptr) {
      throw std::invalid_argument("ScenarioSpec: member " + member_spec.name +
                                  " switch app needs an ASIC ToR");
    }
    built.switch_program_app = AppRegistry::Global().Create(
        member_spec.switch_app, PlacementKind::kSwitchAsic, env);
    auto* program = dynamic_cast<SwitchProgram*>(built.switch_program_app.get());
    if (program == nullptr) {
      throw std::logic_error("ScenarioSpec: " + member_spec.switch_app +
                             " kSwitchAsic placement is not a SwitchProgram");
    }
    built.switch_target = std::make_unique<SwitchOffloadTarget>(
        *tor_asic_, *program, built.switch_program_app->proto(), env.service);
  }

  members_.push_back(std::move(built));
}

void ScenarioTestbed::BuildFaults() {
  faults_ = std::make_unique<FaultInjector>(sim_);
  const auto register_link = [this](const std::string& name) {
    if (name.empty()) {
      return;
    }
    if (Link* link = builder_.topology().FindLink(name)) {
      faults_->RegisterLink(name, link);
    }
  };
  if (tor_ != nullptr) {
    faults_->RegisterNode(tor_->SinkName(), tor_);
  }
  const auto register_offload_nic = [this](OffloadNic* board) {
    if (board != nullptr) {
      // Both names mean engine death: TargetName ("netfpga/app") is what the
      // orchestrator logs, SinkName ("netfpga") is what specs naturally say.
      faults_->RegisterTarget(board->TargetName(), board);
      faults_->RegisterTarget(board->SinkName(), board);
    }
  };
  for (size_t i = 0; i < members_.size(); ++i) {
    ScenarioMember& m = members_[i];
    const ScenarioMemberSpec& member_spec = spec_.members[i];
    if (m.server != nullptr) {
      faults_->RegisterNode(m.server->SinkName(), m.server);
    }
    register_offload_nic(m.fpga);
    register_offload_nic(m.smartnic);
    if (m.nic != nullptr) {
      faults_->RegisterNode(m.nic->SinkName(), m.nic);
    }
    if (m.switch_target != nullptr) {
      faults_->RegisterTarget(m.switch_target->TargetName(), m.switch_target.get());
    }
    register_link(member_spec.link_name);
    register_link(member_spec.link_name + "-pcie");
  }
  faults_->Arm(spec_.faults);
}

ScenarioMember& ScenarioTestbed::member(const std::string& name) {
  for (ScenarioMember& m : members_) {
    if (m.name == name) {
      return m;
    }
  }
  throw std::invalid_argument("ScenarioTestbed: no member named " + name);
}

NodeId ScenarioTestbed::ServiceNode() const {
  const ScenarioMemberSpec& member = spec_.members.at(0);
  return member.host.present ? member.host.config.node : member.target.device_node;
}

LoadClient& ScenarioTestbed::AddClient(LoadClientConfig config,
                                       std::unique_ptr<ArrivalProcess> arrival,
                                       RequestFactory factory) {
  if (tor_ != nullptr) {
    throw std::logic_error("ScenarioTestbed: AddClient needs a spec without a ToR");
  }
  if (client_ != nullptr) {
    throw std::logic_error("ScenarioTestbed: client already attached");
  }
  ApplyDcqcn(config);
  client_ = builder_.AddLoadClient(std::move(config), std::move(arrival),
                                   std::move(factory));
  builder_.ConnectClient(client_, Ingress(members_.front()), spec_.client_link,
                         spec_.members.front().link_name);
  return *client_;
}

LoadClient& ScenarioTestbed::AddTorClient(LoadClientConfig config,
                                          std::unique_ptr<ArrivalProcess> arrival,
                                          RequestFactory factory, int shard) {
  if (tor_ == nullptr) {
    throw std::logic_error("ScenarioTestbed: AddTorClient needs a ToR");
  }
  ApplyDcqcn(config);
  const NodeId node = config.node;
  LoadClient* client = builder_.AddLoadClient(std::move(config), std::move(arrival),
                                              std::move(factory), shard);
  Link* link = builder_.topology().ConnectToSwitch(tor_, client, node,
                                                   spec_.client_link);
  client->SetUplink(link);
  return *client;
}

RequestFactory MakeScenarioRequestFactory(const ScenarioWorkloadSpec& workload,
                                          NodeId service, const Zone* zone) {
  using Kind = ScenarioWorkloadSpec::Kind;
  switch (workload.kind) {
    case Kind::kKvUniformGets: {
      const int64_t max_key =
          std::max<int64_t>(0, static_cast<int64_t>(workload.keyspace) - 1);
      if (workload.cross_service != 0) {
        // Key first, then the cross-service decision: the draw order is part
        // of the stream contract (see ScenarioWorkloadSpec::cross_service).
        const NodeId remote = workload.cross_service;
        const double cross_fraction = workload.cross_fraction;
        return [service, remote, max_key,
                cross_fraction](NodeId src, uint64_t id, SimTime now, Rng& rng) {
          const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, max_key));
          const bool cross = rng.UniformDouble(0.0, 1.0) < cross_fraction;
          const NodeId target = cross ? remote : service;
          return MakeKvRequestPacket(src, target, KvRequest{KvOp::kGet, key, 0}, id,
                                     now);
        };
      }
      return [service, max_key](NodeId src, uint64_t id, SimTime now, Rng& rng) {
        const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, max_key));
        return MakeKvRequestPacket(src, service, KvRequest{KvOp::kGet, key, 0}, id, now);
      };
    }
    case Kind::kDnsQueries: {
      DnsWorkloadConfig dns;
      dns.dns_service = service;
      dns.zone_size = zone != nullptr ? zone->size() : workload.keyspace;
      dns.miss_fraction = workload.dns_miss_fraction;
      return MakeDnsRequestFactory(dns);
    }
    case Kind::kNone:
      break;
  }
  return nullptr;
}

void ScenarioTestbed::BuildWorkload() {
  using Kind = ScenarioWorkloadSpec::Kind;
  if (spec_.workload.kind == Kind::kNone) {
    return;
  }
  if (tor_ != nullptr) {
    throw std::invalid_argument(
        "ScenarioSpec: declarative workloads need a spec without a ToR; "
        "attach clients to a ToR via AddTorClient");
  }
  RequestFactory factory =
      MakeScenarioRequestFactory(spec_.workload, ServiceNode(), spec_.env.zone);
  if (factory == nullptr) {
    return;
  }
  AddClient(spec_.workload.client,
            std::make_unique<ConstantArrival>(spec_.workload.rate_per_second),
            std::move(factory));
  client_->Start();
}

size_t OrchestrateMember(ScenarioTestbed& testbed, size_t member, RackAppSpec app,
                         RatePowerFn fpga_watts, bool switch_option,
                         RackOrchestrator& orchestrator,
                         std::vector<std::unique_ptr<StateTransferMigrator>>& migrators) {
  ScenarioMember& built = testbed.member(member);
  const ScenarioMemberSpec& spec = testbed.spec().members.at(member);
  FpgaNic* fpga = built.offload_app != nullptr ? built.fpga : nullptr;
  const auto reject = [&built](const char* why) {
    throw std::invalid_argument("OrchestrateMember: member " + built.name + why);
  };
  if (built.host_apps.empty()) {
    reject(" needs a host app");
  }
  if (fpga == nullptr && !switch_option) {
    reject(" has no FPGA placement and no switch option");
  }
  if (switch_option && built.switch_target == nullptr) {
    reject(" switch option needs a switch_app on an ASIC ToR");
  }
  Simulation& sim = testbed.sim();
  App* host_app = built.host_apps.front().get();
  app.name = built.name;
  std::vector<const OffloadTarget*> targets;

  if (fpga != nullptr) {
    auto* software_leader = dynamic_cast<SoftwareLeader*>(host_app);
    auto* hardware_leader = dynamic_cast<P4xosFpgaApp*>(built.offload_app.get());
    if (software_leader != nullptr && hardware_leader != nullptr) {
      migrators.push_back(std::make_unique<PaxosLeaderMigrator>(
          sim, *testbed.tor(), spec.env.service, *software_leader, built.port, *fpga,
          *hardware_leader, built.port));
    } else {
      migrators.push_back(std::make_unique<StateTransferMigrator>(
          sim, *fpga, StateTransferMigrator::Options::FromPolicy(ParkPolicy::kGatedPark),
          host_app, built.offload_app.get()));
    }
    app.options.push_back(
        RackPlacementOption{fpga, migrators.back().get(), std::move(fpga_watts)});
    targets.push_back(fpga);
    if (Link* link = testbed.builder().topology().FindLink(spec.link_name)) {
      orchestrator.SetHeartbeatReachability(
          fpga, [link, fpga] { return !link->link_down(fpga); });
    }
  }

  if (switch_option) {
    SwitchOffloadTarget* target = built.switch_target.get();
    const SwitchAsic& asic = *testbed.tor_asic();
    auto* program = dynamic_cast<SwitchProgram*>(built.switch_program_app.get());
    RatePowerFn marginal =
        MakeSwitchMarginalPower(program->PowerOverheadAtFullLoad(),
                                asic.asic_config().max_power_watts, asic.LineRatePps());
    const double host_idle_watts = app.software_watts(0);
    migrators.push_back(std::make_unique<StateTransferMigrator>(
        sim, *target, StateTransferMigrator::Options::FromPolicy(ParkPolicy::kKeepWarm),
        host_app, built.switch_program_app.get()));
    // The ASIC forwards either way: only the program's marginal watts ride
    // on top of the idling host.
    app.options.push_back(RackPlacementOption{
        target, migrators.back().get(), [host_idle_watts, marginal](double rate) {
          return host_idle_watts + marginal(rate);
        }});
    targets.push_back(target);
  }

  app.measured_rate_pps = [targets] {
    double rate = 0;
    for (const OffloadTarget* target : targets) {
      rate += target->AppIngressRatePerSecond();
    }
    return rate;
  };
  return orchestrator.AddApp(std::move(app));
}

}  // namespace incod
