#include "src/scenarios/dns_testbed.h"

#include <utility>

#include "src/power/cpu_power.h"
#include "src/scenarios/kvs_testbed.h"

namespace incod {

ScenarioSpec MakeDnsScenarioSpec(const DnsTestbedOptions& options, const Zone* zone) {
  ScenarioSpec spec;
  spec.name = "dns";
  spec.meter_period = options.meter_period;
  spec.env.zone = zone;

  ScenarioMemberSpec& dns = spec.members.emplace_back();
  dns.name = "dns";
  dns.env.nsd = options.nsd;
  dns.env.emu_dns = options.emu;
  dns.host.present = options.mode != DnsMode::kEmuStandalone;
  dns.host.config.name = "i7-server";
  dns.host.config.node = kTestbedServerNode;
  dns.host.config.num_cores = 4;
  dns.host.config.power_curve = I7NsdCurve();
  if (dns.host.present) {
    dns.host.apps = {"dns"};
  }
  switch (options.mode) {
    case DnsMode::kSoftwareOnly:
      dns.target.kind = ScenarioTargetKind::kConventionalNic;
      dns.target.name = "";  // Mellanox preset name.
      break;
    case DnsMode::kEmu:
    case DnsMode::kEmuStandalone:
      dns.target.kind = ScenarioTargetKind::kFpgaNic;
      dns.target.name = "netfpga-emu";
      dns.target.device_node = kTestbedDeviceNode;
      dns.target.standalone = options.mode == DnsMode::kEmuStandalone;
      dns.target.app = "dns";
      dns.target.initially_active = options.emu_initially_active;
      break;
  }
  return spec;
}

DnsTestbed::DnsTestbed(Simulation& sim, DnsTestbedOptions options)
    : sim_(sim), options_(std::move(options)) {
  zone_.FillSynthetic(options_.zone_size);
  testbed_ = std::make_unique<ScenarioTestbed>(sim, MakeDnsScenarioSpec(options_, &zone_));
  nsd_ = testbed_->member_host_app_as<NsdServer>(0);
  emu_ = testbed_->member_offload_app_as<EmuDns>(0);
}

LoadClient& DnsTestbed::AddClient(LoadClientConfig config,
                                  std::unique_ptr<ArrivalProcess> arrival,
                                  RequestFactory factory) {
  return testbed_->AddClient(std::move(config), std::move(arrival), std::move(factory));
}

}  // namespace incod
