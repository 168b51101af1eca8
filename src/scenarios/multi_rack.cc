#include "src/scenarios/multi_rack.h"

#include <string>
#include <utility>

#include "src/power/cpu_power.h"
#include "src/scenarios/kvs_testbed.h"

namespace incod {

RowSpec MakeMultiRackRowSpec(const MultiRackOptions& options) {
  RowSpec row;
  row.name = "multi-rack";
  row.zone_size = options.zone_size;
  row.inter_rack_propagation = options.inter_rack_propagation;
  row.uplink_gigabits_per_second = options.uplink_gigabits_per_second;

  for (int r = 0; r < options.num_racks; ++r) {
    RowRackSpec rack;
    ScenarioSpec& spec = rack.scenario;
    spec.name = "rack-" + std::to_string(r);
    spec.meter_period = options.meter_period;
    spec.tor.present = true;
    spec.tor.asic = false;  // Plain L2 ToR; the spine handles inter-rack.
    spec.tor.name = "tor-" + std::to_string(r);

    {
      ScenarioMemberSpec kvs;
      kvs.name = "kvs";
      kvs.link_name = "kvs-10ge";
      kvs.host.config.name = spec.name + "-kvs-host";
      kvs.host.config.node = MultiRackScenario::KvsHostNode(r);
      kvs.host.config.num_cores = 4;
      kvs.host.config.power_curve = I7MemcachedCurve();
      kvs.host.apps = {"kvs"};
      kvs.target.kind = ScenarioTargetKind::kFpgaNic;
      kvs.target.name = spec.name + "-lake";
      kvs.target.device_node = MultiRackScenario::KvsDeviceNode(r);
      kvs.target.app = "kvs";
      kvs.switch_routes = {MultiRackScenario::KvsHostNode(r),
                           MultiRackScenario::KvsDeviceNode(r)};
      spec.members.push_back(std::move(kvs));
    }
    {
      ScenarioMemberSpec dns;
      dns.name = "dns";
      dns.link_name = "dns-10ge";
      dns.host.config.name = spec.name + "-dns-host";
      dns.host.config.node = MultiRackScenario::DnsHostNode(r);
      dns.host.config.num_cores = 4;
      dns.host.config.power_curve = I7NsdCurve();
      dns.host.apps = {"dns"};
      dns.target.kind = ScenarioTargetKind::kConventionalNic;
      dns.switch_routes = {MultiRackScenario::DnsHostNode(r)};
      dns.env.service = MultiRackScenario::DnsHostNode(r);
      spec.members.push_back(std::move(dns));
    }

    {
      // Uniform gets split between the local rack's server and the next
      // rack's. The cross-rack decision consumes one extra draw per request
      // in *every* mode, so sharded and single-queue runs stay
      // stream-identical.
      RowClientSpec kvs_client;
      kvs_client.client.node = MultiRackScenario::KvsClientNode(r);
      kvs_client.rate_per_second = options.kvs_rate_per_second;
      kvs_client.workload.kind = ScenarioWorkloadSpec::Kind::kKvUniformGets;
      kvs_client.workload.keyspace = options.keyspace;
      kvs_client.workload.cross_service =
          MultiRackScenario::KvsHostNode((r + 1) % options.num_racks);
      kvs_client.workload.cross_fraction = options.cross_rack_fraction;
      kvs_client.service = MultiRackScenario::KvsHostNode(r);
      rack.clients.push_back(std::move(kvs_client));
    }
    {
      RowClientSpec dns_client;
      dns_client.client.node = MultiRackScenario::DnsClientNode(r);
      dns_client.rate_per_second = options.dns_rate_per_second;
      dns_client.workload.kind = ScenarioWorkloadSpec::Kind::kDnsQueries;
      dns_client.service = MultiRackScenario::DnsHostNode(r);
      rack.clients.push_back(std::move(dns_client));
    }

    row.racks.push_back(std::move(rack));
  }
  return row;
}

MultiRackScenario::MultiRackScenario(ShardedSimulation& sharded,
                                     MultiRackOptions options)
    : row_(sharded, MakeMultiRackRowSpec(options)) {
  for (int r = 0; r < num_racks(); ++r) {
    PrefillKvsMember(rack(r).member(0), options.prefill, options.value_bytes);
  }
}

void MultiRackScenario::Start() {
  for (int r = 0; r < num_racks(); ++r) {
    kvs_client(r).Start();
  }
  for (int r = 0; r < num_racks(); ++r) {
    dns_client(r).Start();
  }
}

}  // namespace incod
