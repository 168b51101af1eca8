// Umbrella header: the full public API of the incod library.
//
// Most users only need a scenario testbed plus a workload; include the
// individual headers for finer-grained dependencies.
#ifndef INCOD_SRC_INCOD_H_
#define INCOD_SRC_INCOD_H_

// Simulation core.
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

// Measurement.
#include "src/stats/count_min.h"
#include "src/stats/counters.h"
#include "src/stats/csv.h"
#include "src/stats/histogram.h"
#include "src/stats/timeseries.h"

// Power modeling.
#include "src/power/cpu_power.h"
#include "src/power/curve.h"
#include "src/power/ledger.h"
#include "src/power/meter.h"
#include "src/power/power_source.h"
#include "src/power/psu.h"

// Network substrate.
#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/net/switch.h"
#include "src/net/topology.h"

// Unified application layer: one App contract across host / FPGA NIC /
// switch-ASIC placements, typed state snapshots, and the name -> factory
// registry scenarios build from.
#include "src/app/app.h"
#include "src/app/app_registry.h"
#include "src/app/app_state.h"
#include "src/app/switch_app.h"

// Hosts and devices.
#include "src/device/conventional_nic.h"
#include "src/device/fpga_nic.h"
#include "src/device/nic_ports.h"
#include "src/device/offload_nic.h"
#include "src/device/offload_target.h"
#include "src/device/smartnic.h"
#include "src/device/switch_asic.h"
#include "src/device/switch_offload.h"
#include "src/host/server.h"

// Fault injection.
#include "src/fault/fault_injector.h"

// Applications.
#include "src/dns/dns_message.h"
#include "src/dns/emu_dns.h"
#include "src/dns/nsd_server.h"
#include "src/dns/switch_dns.h"
#include "src/dns/zone.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/kv_store.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/kvs/netcache.h"
#include "src/paxos/p4xos.h"
#include "src/paxos/paxos_client.h"
#include "src/paxos/paxos_msg.h"
#include "src/paxos/roles.h"
#include "src/paxos/software_roles.h"

// On-demand computing (the paper's contribution).
#include "src/ondemand/controller.h"
#include "src/ondemand/energy_advisor.h"
#include "src/ondemand/migrator.h"
#include "src/ondemand/rack.h"

// Workloads and testbeds.
#include "src/scenarios/dns_testbed.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/paxos_testbed.h"
#include "src/scenarios/rack_scenario.h"
#include "src/scenarios/scenario_spec.h"
#include "src/scenarios/testbed_builder.h"
#include "src/workload/arrival.h"
#include "src/workload/client.h"
#include "src/workload/dns_workload.h"
#include "src/workload/dynamo.h"
#include "src/workload/etc_workload.h"
#include "src/workload/google_trace.h"

#endif  // INCOD_SRC_INCOD_H_
