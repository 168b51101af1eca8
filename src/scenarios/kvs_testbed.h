// KVS experiment testbed (Fig 3a, Fig 4, Fig 6 topologies).
//
// Wires up the paper's §4.1 setup in one of three modes:
//   kSoftwareOnly:   client --10GE-- conventional NIC --PCIe-- i7 server
//   kLake:           client --10GE-- NetFPGA(LaKe)    --PCIe-- i7 server
//   kLakeStandalone: client --10GE-- NetFPGA(LaKe) (hostless, own PSU)
// and attaches a wall power meter to exactly the components the paper's
// SHW-3A saw for that configuration. The testbed is a thin veneer over a
// declarative ScenarioSpec: it fills in the spec ("kvs" from the
// AppRegistry on both placements) and keeps concrete-typed accessors for
// the benches and tests.
#ifndef INCOD_SRC_SCENARIOS_KVS_TESTBED_H_
#define INCOD_SRC_SCENARIOS_KVS_TESTBED_H_

#include <memory>

#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/scenarios/scenario_spec.h"

namespace incod {

// Testbed node addresses.
constexpr NodeId kTestbedClientNode = 100;
constexpr NodeId kTestbedServerNode = 1;
constexpr NodeId kTestbedDeviceNode = 50;

enum class KvsMode { kSoftwareOnly, kLake, kLakeStandalone };

struct KvsTestbedOptions {
  KvsMode mode = KvsMode::kLake;
  bool lake_initially_active = true;
  LakeConfig lake;
  MemcachedConfig memcached;
  bool intel_nic = false;  // kSoftwareOnly: Intel X520 instead of Mellanox.
  SimDuration meter_period = Milliseconds(1);
};

// Builds the declarative spec the testbed wires: one ToR-less member
// (exposed so differential tests and custom scenarios can start from the
// same literal).
ScenarioSpec MakeKvsScenarioSpec(const KvsTestbedOptions& options);

// Fills a built member's memcached store (when it hosts one) and LaKe
// caches (when it carries the FPGA placement) with keys [0, count) so GETs
// hit.
void PrefillKvsMember(ScenarioMember& member, uint64_t count, uint32_t value_bytes);

class KvsTestbed {
 public:
  KvsTestbed(Simulation& sim, KvsTestbedOptions options);

  // Null when the mode lacks the component.
  Server* server() { return testbed_->member(0).server; }
  FpgaNic* fpga() { return testbed_->member(0).fpga; }
  LakeCache* lake() { return lake_; }
  ConventionalNic* nic() { return testbed_->member(0).nic; }
  MemcachedServer* memcached() { return memcached_; }
  WallPowerMeter& meter() { return testbed_->meter(); }
  Simulation& sim() { return sim_; }
  TestbedBuilder& builder() { return testbed_->builder(); }
  ScenarioTestbed& scenario() { return *testbed_; }

  // Creates the (single) load client wired to the testbed ingress.
  LoadClient& AddClient(LoadClientConfig config, std::unique_ptr<ArrivalProcess> arrival,
                        RequestFactory factory);
  LoadClient* client() { return testbed_->client(); }

  // Address clients should target.
  NodeId ServiceNode() const { return testbed_->ServiceNode(); }

  // PrefillKvsMember over the testbed's one member.
  void Prefill(uint64_t count, uint32_t value_bytes) {
    PrefillKvsMember(testbed_->member(0), count, value_bytes);
  }

 private:
  Simulation& sim_;
  KvsTestbedOptions options_;
  std::unique_ptr<ScenarioTestbed> testbed_;
  MemcachedServer* memcached_ = nullptr;
  LakeCache* lake_ = nullptr;
};

}  // namespace incod

#endif  // INCOD_SRC_SCENARIOS_KVS_TESTBED_H_
