// AppRegistry: name -> per-placement application factories.
//
// The registry is how scenarios say *what* runs without hard-coding *how*
// it is built for a given substrate: one name ("kvs", "dns",
// "paxos-leader") covers every placement the family supports, and
// Create(name, placement, env) returns the matching unified App —
// MemcachedServer, LaKe, or NetCache for "kvs" depending on where it lands.
// TestbedBuilder/ScenarioSpec consume this, so a new app plugs into every
// testbed, bench, and migration scenario by registering one factory.
#ifndef INCOD_SRC_APP_APP_REGISTRY_H_
#define INCOD_SRC_APP_APP_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/dns/emu_dns.h"
#include "src/dns/nsd_server.h"
#include "src/dns/switch_dns.h"
#include "src/dns/zone.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/kvs/netcache.h"
#include "src/paxos/p4xos.h"
#include "src/paxos/software_roles.h"

namespace incod {

// Resources and per-family knobs a factory may need. Callers fill only the
// fields the app family uses; factories throw std::invalid_argument when a
// required resource is missing.
struct AppFactoryEnv {
  // Shared resources.
  const Zone* zone = nullptr;                     // DNS family.
  const PaxosGroupConfig* paxos_group = nullptr;  // Paxos family.
  // Service/role address offload placements answer on (0: unused).
  NodeId service = 0;
  // Leader ballot or acceptor id for Paxos roles.
  uint32_t paxos_role_id = 1;

  // Per-family construction knobs (defaults match the paper's calibration).
  MemcachedConfig memcached{};
  LakeConfig lake{};
  KvSwitchCacheConfig netcache{};
  NsdConfig nsd{};
  EmuDnsConfig emu_dns{};
  DnsSwitchConfig switch_dns{};
  PaxosSoftwareConfig paxos_software{};
  P4xosFpgaConfig p4xos{};

  AppFactoryEnv() { paxos_software = LibpaxosConfig(); }
};

class AppRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<App>(PlacementKind, const AppFactoryEnv&)>;

  // Registers (or replaces) a family. `placements` lists the substrates the
  // factory can build for.
  void Register(const std::string& name, std::vector<PlacementKind> placements,
                Factory factory);

  bool Has(const std::string& name) const;
  bool Supports(const std::string& name, PlacementKind placement) const;
  std::vector<std::string> Names() const;  // Sorted.
  std::vector<PlacementKind> Placements(const std::string& name) const;

  // Builds the app for the placement; throws std::invalid_argument for an
  // unknown name or unsupported placement.
  std::unique_ptr<App> Create(const std::string& name, PlacementKind placement,
                              const AppFactoryEnv& env) const;

  // Create + downcast, for callers that keep concrete-typed ownership.
  template <typename T>
  std::unique_ptr<T> CreateAs(const std::string& name, PlacementKind placement,
                              const AppFactoryEnv& env) const {
    std::unique_ptr<App> app = Create(name, placement, env);
    T* typed = dynamic_cast<T*>(app.get());
    if (typed == nullptr) {
      throw std::logic_error("AppRegistry: " + name + " on " +
                             PlacementKindName(placement) +
                             " is not the requested concrete type");
    }
    app.release();
    return std::unique_ptr<T>(typed);
  }

  // The process-wide registry with the built-in families ("kvs", "dns",
  // "paxos-leader", "paxos-acceptor", "paxos-learner") pre-registered.
  static AppRegistry& Global();

 private:
  struct Entry {
    std::vector<PlacementKind> placements;
    Factory factory;
  };

  std::map<std::string, Entry> entries_;
};

}  // namespace incod

#endif  // INCOD_SRC_APP_APP_REGISTRY_H_
