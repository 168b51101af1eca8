// Multi-rack fabric: N identical KVS+DNS racks behind one spine switch.
//
// The scale-out scenario the sharded engine is built for: each rack is a
// self-contained ScenarioTestbed (plain L2 ToR, a KVS member with an active
// LaKe FPGA NIC, a DNS member on a conventional NIC, and both load clients)
// living in its own shard, and the spine switch gets a shard of its own.
// The only cross-shard links are the rack uplinks, whose propagation delay
// (microseconds of fiber between racks) is exactly the conservative
// lookahead the parallel engine synchronizes on — racks simulate
// independently between uplink-latency-sized rounds.
//
// A configurable fraction of each rack's KVS gets target the *next* rack's
// server (cross-rack traffic through ToR default routes and the spine), so
// the shards genuinely exchange events rather than running N disjoint
// simulations.
//
// Since the row subsystem landed, this scenario is a thin veneer:
// MakeMultiRackRowSpec builds the declarative RowSpec and RowScenario does
// all the wiring. Only the KVS prefill and the legacy client start order
// (all KVS clients, then all DNS clients) live here.
#ifndef INCOD_SRC_SCENARIOS_MULTI_RACK_H_
#define INCOD_SRC_SCENARIOS_MULTI_RACK_H_

#include "src/net/switch.h"
#include "src/row/row_scenario.h"
#include "src/row/row_spec.h"
#include "src/scenarios/scenario_spec.h"
#include "src/sim/sharded.h"

namespace incod {

struct MultiRackOptions {
  int num_racks = 4;
  double kvs_rate_per_second = 500000;
  double dns_rate_per_second = 250000;
  // Fraction of each rack's KVS gets addressed to the next rack's server.
  double cross_rack_fraction = 0.05;
  uint64_t keyspace = 4000;
  uint64_t prefill = 4000;
  uint32_t value_bytes = 64;
  size_t zone_size = 2000;
  // Inter-rack fiber: the rack uplinks' propagation delay, and therefore
  // the engine lookahead. Must be > 0.
  SimDuration inter_rack_propagation = Microseconds(5);
  double uplink_gigabits_per_second = 40.0;
  SimDuration meter_period = Milliseconds(1);
};

class MultiRackScenario {
 public:
  // Rack node addresses: rack r owns [1000r, 1000r + 999].
  static constexpr NodeId KvsHostNode(int rack) { return 1000 * rack + 1; }
  static constexpr NodeId DnsHostNode(int rack) { return 1000 * rack + 2; }
  static constexpr NodeId KvsDeviceNode(int rack) { return 1000 * rack + 50; }
  static constexpr NodeId KvsClientNode(int rack) { return 1000 * rack + 100; }
  static constexpr NodeId DnsClientNode(int rack) { return 1000 * rack + 101; }

  // Requires sharded.num_shards() == options.num_racks + 1 (one shard per
  // rack plus the spine shard).
  explicit MultiRackScenario(ShardedSimulation& sharded, MultiRackOptions options = {});

  int num_racks() const { return row_.num_racks(); }
  ScenarioTestbed& rack(int r) { return row_.rack(r); }
  L2Switch& spine() { return row_.spine(); }
  LoadClient& kvs_client(int r) { return row_.client(r, 0); }
  LoadClient& dns_client(int r) { return row_.client(r, 1); }
  // The RowScenario doing the actual wiring.
  RowScenario& row() { return row_; }

  // Starts every rack's clients (all KVS clients first, then all DNS
  // clients — the order the hand-wired scenario always used).
  void Start();

  uint64_t TotalSent() const { return row_.TotalSent(); }
  uint64_t TotalReceived() const { return row_.TotalReceived(); }

 private:
  RowScenario row_;
};

// The declarative form of the scenario above: N rack ScenarioSpecs (KVS
// member with an active LaKe FPGA, DNS member on a conventional NIC) plus
// per-rack KVS/DNS clients, with each KVS client's workload sending
// cross_rack_fraction of its gets to the next rack's server. Exposed so
// tests can diff the veneer against hand-wired construction and so row
// scenarios can start from the same racks.
RowSpec MakeMultiRackRowSpec(const MultiRackOptions& options);

}  // namespace incod

#endif  // INCOD_SRC_SCENARIOS_MULTI_RACK_H_
