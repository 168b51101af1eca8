#include "src/scenarios/rack_scenario.h"

#include <stdexcept>
#include <utility>

#include "src/power/cpu_power.h"
#include "src/scenarios/kvs_testbed.h"

namespace incod {

size_t MixedRackScenario::paxos_app_index() const {
  if (paxos_app_ == kNoApp) {
    throw std::logic_error("MixedRackScenario: built without paxos");
  }
  return paxos_app_;
}

ScenarioSpec MakeMixedRackSpec(const MixedRackOptions& options, const Zone* zone) {
  ScenarioSpec spec;
  spec.name = "mixed-rack";
  spec.meter_period = options.meter_period;
  spec.flow = options.flow;
  spec.hostnic = options.hostnic;
  spec.env.zone = zone;

  // Rack ToR: a Tofino-class ASIC forwarding everything at line rate.
  spec.tor.present = true;
  spec.tor.asic = true;
  spec.tor.name = "rack-tor";
  spec.tor.metered = true;

  {
    ScenarioMemberSpec kvs;
    kvs.name = "kvs";
    kvs.link_name = "kvs-10ge";
    kvs.host.config.name = "kvs-host";
    kvs.host.config.node = kRackKvsServerNode;
    kvs.host.config.num_cores = 4;
    kvs.host.config.power_curve = I7MemcachedCurve();
    kvs.host.apps = {"kvs"};
    kvs.target.kind = ScenarioTargetKind::kFpgaNic;
    kvs.target.name = "netfpga-lake";
    kvs.target.device_node = kRackKvsDeviceNode;
    kvs.target.app = "kvs";
    // The migrator parks the placement; avoid a spurious activate cycle.
    kvs.target.initially_active = false;
    kvs.switch_routes = {kRackKvsServerNode, kRackKvsDeviceNode};
    kvs.env.memcached = options.memcached;
    kvs.env.lake = options.lake;
    if (options.kvs_switch_placement) {
      // Second in-network placement: a NetCache program fronting the same
      // service in the ToR pipeline.
      kvs.switch_app = "kvs";
      kvs.env.netcache = options.netcache;
      kvs.env.service = kRackKvsServerNode;
    }
    spec.members.push_back(std::move(kvs));
  }

  {
    ScenarioMemberSpec dns;
    dns.name = "dns";
    dns.link_name = "dns-10ge";
    dns.host.config.name = "dns-host";
    dns.host.config.node = kRackDnsServerNode;
    dns.host.config.num_cores = 4;
    dns.host.config.power_curve = I7NsdCurve();
    dns.host.apps = {"dns"};
    dns.target.kind = ScenarioTargetKind::kConventionalNic;
    dns.target.name = "";  // Preset (Mellanox) name.
    dns.switch_routes = {kRackDnsServerNode};
    // DNS offloads into the ToR pipeline itself (§9.2's switch-DNS argument).
    dns.switch_app = "dns";
    dns.env.nsd = options.nsd;
    dns.env.service = kRackDnsServerNode;
    spec.members.push_back(std::move(dns));
  }

  if (options.enable_paxos) {
    PaxosGroupConfig group;
    for (int i = 0; i < options.num_acceptors; ++i) {
      group.acceptors.push_back(kRackAcceptorBaseNode + static_cast<NodeId>(i));
    }
    group.learners.push_back(kRackLearnerNode);
    group.leader_service = kRackPaxosLeaderService;
    spec.paxos_group = std::move(group);

    // Dual leader (Fig 7 style): software leader on the host, P4xos on its
    // NIC.
    ScenarioMemberSpec leader;
    leader.name = "paxos";
    leader.link_name = "paxos-10ge";
    leader.host.config.name = "paxos-leader-host";
    leader.host.config.node = kRackPaxosHostNode;
    leader.host.config.num_cores = 4;
    leader.host.config.power_curve = I7LibpaxosCurve();
    leader.host.apps = {"paxos-leader"};
    leader.target.kind = ScenarioTargetKind::kFpgaNic;
    leader.target.name = "netfpga-p4xos";
    leader.target.device_node = kRackPaxosDeviceNode;
    leader.target.app = "paxos-leader";
    leader.target.initially_active = false;
    leader.switch_routes = {kRackPaxosLeaderService, kRackPaxosHostNode,
                            kRackPaxosDeviceNode};
    leader.env.paxos_role_id = 1;
    leader.env.service = kRackPaxosLeaderService;
    spec.members.push_back(std::move(leader));

    // Acceptors and learner on aux boxes that never bottleneck.
    for (int i = 0; i < options.num_acceptors; ++i) {
      ScenarioMemberSpec acceptor;
      acceptor.name = "acceptor-" + std::to_string(i);
      acceptor.aux = true;
      acceptor.aux_cores = 4;
      acceptor.target.kind = ScenarioTargetKind::kNone;
      acceptor.host.config.name = "aux-acceptor";
      acceptor.host.config.node = kRackAcceptorBaseNode + static_cast<NodeId>(i);
      acceptor.host.apps = {"paxos-acceptor"};
      acceptor.env.paxos_role_id = static_cast<uint32_t>(i);
      acceptor.env.paxos_software = PaxosSoftwareConfig{Nanoseconds(300), 2};
      spec.members.push_back(std::move(acceptor));
    }
    ScenarioMemberSpec learner;
    learner.name = "learner";
    learner.aux = true;
    learner.aux_cores = 8;
    learner.target.kind = ScenarioTargetKind::kNone;
    learner.host.config.name = "learner-host";
    learner.host.config.node = kRackLearnerNode;
    learner.host.apps = {"paxos-learner"};
    learner.env.paxos_software = PaxosSoftwareConfig{Nanoseconds(100), 8};
    spec.members.push_back(std::move(learner));
  }
  spec.faults = options.faults;
  return spec;
}

MixedRackScenario::MixedRackScenario(Simulation& sim, MixedRackOptions options)
    : sim_(sim), options_(std::move(options)) {
  zone_.FillSynthetic(options_.zone_size);
  testbed_ = std::make_unique<ScenarioTestbed>(sim_,
                                               MakeMixedRackSpec(options_, &zone_));
  BuildOrchestration();
}

MixedRackScenario::MixedRackScenario(ShardedSimulation& sharded,
                                     const MixedRackShardPlan& plan,
                                     MixedRackOptions options)
    : sim_(sharded.shard(plan.rack)),
      options_(std::move(options)),
      sharded_(&sharded),
      plan_(plan) {
  zone_.FillSynthetic(options_.zone_size);
  ScenarioSpec spec = MakeMixedRackSpec(options_, &zone_);
  spec.shard = plan_.rack;
  spec.client_link.propagation_delay = plan_.client_propagation;
  testbed_ = std::make_unique<ScenarioTestbed>(sharded, std::move(spec));
  BuildOrchestration();
}

StateTransferMigrator* MixedRackScenario::MigratorFor(const OffloadTarget* target) {
  for (const auto& migrator : migrators_) {
    if (&migrator->target() == target) {
      return migrator.get();
    }
  }
  return nullptr;
}

void MixedRackScenario::BuildOrchestration() {
  if (options_.enable_paxos) {
    dynamic_cast<SoftwareLearner*>(testbed_->member("learner").host_apps.front().get())
        ->StartGapTimer();
  }
  RackOrchestratorConfig config = options_.orchestrator;
  config.power_budget_watts = options_.power_budget_watts;
  orchestrator_ = std::make_unique<RackOrchestrator>(sim_, config);

  // §8-calibrated placement models. Both sides include the host (it stays
  // powered either way) so the delta is the true placement cost.
  const double kHostIdleWatts = 35.0;

  RackAppSpec kvs;
  kvs.warm_migration = options_.warm.kvs;
  kvs.checkpoint_period = options_.kvs_checkpoint_period;
  auto kvs_curve = MakeServerRatePower(I7MemcachedCurve(), Microseconds(4), 4);
  kvs.software_watts = [kvs_curve](double r) { return kvs_curve(r) + 4.0; };
  kvs_app_ = OrchestrateMember(*testbed_, kKvsMember, std::move(kvs),
                               MakeFpgaRatePower(kHostIdleWatts, 24.0, 1.0, 13e6),
                               options_.kvs_switch_placement, *orchestrator_, migrators_);

  // DNS has no FPGA: its one placement is the switch-DNS program (§9.2).
  RackAppSpec dns;
  dns.warm_migration = options_.warm.dns;
  auto dns_curve = MakeServerRatePower(I7NsdCurve(), Nanoseconds(4180), 4);
  dns.software_watts = [dns_curve](double r) { return dns_curve(r) + 4.0; };
  dns_app_ = OrchestrateMember(*testbed_, kDnsMember, std::move(dns), nullptr,
                               /*switch_option=*/true, *orchestrator_, migrators_);

  if (options_.enable_paxos) {
    RackAppSpec paxos;
    paxos.warm_migration = options_.warm.paxos;
    paxos.checkpoint_period = options_.paxos_checkpoint_period;
    paxos.restore_checkpoint_to_home = options_.paxos_restore_to_home;
    paxos.software_watts = MakeServerRatePower(I7LibpaxosCurve(), Nanoseconds(5600), 1);
    paxos_app_ = OrchestrateMember(*testbed_, kPaxosMember, std::move(paxos),
                                   MakeFpgaRatePower(kHostIdleWatts, 12.6, 1.2, 10e6),
                                   /*switch_option=*/false, *orchestrator_, migrators_);

    options_.paxos_client.node = kRackPaxosClientNode;
    options_.paxos_client.leader_service = kRackPaxosLeaderService;
    Link::Config client_link = TestbedBuilder::TenGigLink();
    Simulation* client_sim = &sim_;
    if (sharded_ != nullptr) {
      client_sim = &sharded_->shard(plan_.paxos_client);
      client_link.propagation_delay = plan_.client_propagation;
    }
    paxos_client_ = std::make_unique<PaxosClient>(*client_sim, options_.paxos_client);
    if (sharded_ != nullptr) {
      // Before ConnectToSwitch, so the new link sees the client's shard.
      testbed_->builder().topology().AssignShard(paxos_client_.get(),
                                                 plan_.paxos_client);
    }
    Link* link = testbed_->builder().topology().ConnectToSwitch(
        testbed_->tor(), paxos_client_.get(), kRackPaxosClientNode, client_link);
    paxos_client_->SetUplink(link);
  }

  // PSU brownouts step the shared budget through the orchestrator's
  // eviction pass. Read at fire time, so arming before this wiring is fine.
  testbed_->faults().SetPowerCapHandler(
      [this](double watts) { orchestrator_->ApplyPowerCap(watts); });
}

LoadClient& MixedRackScenario::AddKvsClient(LoadClientConfig config,
                                            std::unique_ptr<ArrivalProcess> arrival,
                                            RequestFactory factory) {
  config.node = kRackKvsClientNode;
  return testbed_->AddTorClient(std::move(config), std::move(arrival),
                                std::move(factory), ClientShard(plan_.kvs_client));
}

LoadClient& MixedRackScenario::AddDnsClient(LoadClientConfig config,
                                            std::unique_ptr<ArrivalProcess> arrival,
                                            RequestFactory factory) {
  config.node = kRackDnsClientNode;
  return testbed_->AddTorClient(std::move(config), std::move(arrival),
                                std::move(factory), ClientShard(plan_.dns_client));
}

void MixedRackScenario::PrefillKvs(uint64_t count, uint32_t value_bytes) {
  PrefillKvsMember(testbed_->member("kvs"), count, value_bytes);
}

}  // namespace incod
