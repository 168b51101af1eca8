#include "src/app/app_registry.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

namespace incod {

namespace {

[[noreturn]] void ThrowMissing(const char* family, const char* what) {
  throw std::invalid_argument(std::string("AppRegistry: ") + family +
                              " factory needs " + what);
}

const Zone* RequireZone(const AppFactoryEnv& env) {
  if (env.zone == nullptr) {
    ThrowMissing("dns", "env.zone");
  }
  return env.zone;
}

PaxosGroupConfig RequireGroup(const AppFactoryEnv& env) {
  if (env.paxos_group == nullptr) {
    ThrowMissing("paxos", "env.paxos_group");
  }
  return *env.paxos_group;
}

std::unique_ptr<App> MakeKvs(PlacementKind placement, const AppFactoryEnv& env) {
  switch (placement) {
    case PlacementKind::kHost:
      return std::make_unique<MemcachedServer>(env.memcached);
    case PlacementKind::kFpgaNic:
    case PlacementKind::kSmartNic:
      return std::make_unique<LakeCache>(env.lake);
    case PlacementKind::kSwitchAsic: {
      KvSwitchCacheConfig config = env.netcache;
      if (env.service != 0) {
        config.kvs_service = env.service;
      }
      return std::make_unique<KvSwitchCache>(config);
    }
  }
  return nullptr;
}

std::unique_ptr<App> MakeDns(PlacementKind placement, const AppFactoryEnv& env) {
  switch (placement) {
    case PlacementKind::kHost:
      return std::make_unique<NsdServer>(RequireZone(env), env.nsd);
    case PlacementKind::kFpgaNic:
    case PlacementKind::kSmartNic:
      return std::make_unique<EmuDns>(RequireZone(env), env.emu_dns);
    case PlacementKind::kSwitchAsic: {
      DnsSwitchConfig config = env.switch_dns;
      if (env.service != 0) {
        config.dns_service = env.service;
      }
      return std::make_unique<DnsSwitchProgram>(RequireZone(env), config);
    }
  }
  return nullptr;
}

std::unique_ptr<App> MakePaxosRole(P4xosRole role, PlacementKind placement,
                                   const AppFactoryEnv& env) {
  PaxosGroupConfig group = RequireGroup(env);
  switch (placement) {
    case PlacementKind::kHost:
      if (role == P4xosRole::kLeader) {
        return std::make_unique<SoftwareLeader>(
            std::move(group), static_cast<uint16_t>(env.paxos_role_id),
            env.paxos_software);
      }
      return std::make_unique<SoftwareAcceptor>(std::move(group), env.paxos_role_id,
                                                env.paxos_software);
    case PlacementKind::kFpgaNic:
    case PlacementKind::kSmartNic:
      return std::make_unique<P4xosFpgaApp>(role, std::move(group), env.paxos_role_id,
                                            env.service, env.p4xos);
    case PlacementKind::kSwitchAsic:
      return std::make_unique<P4xosSwitchProgram>(role, std::move(group),
                                                  env.paxos_role_id, env.service);
  }
  return nullptr;
}

constexpr PlacementKind kAllPlacements[] = {
    PlacementKind::kHost, PlacementKind::kFpgaNic, PlacementKind::kSwitchAsic,
    PlacementKind::kSmartNic};

}  // namespace

void AppRegistry::Register(const std::string& name,
                           std::vector<PlacementKind> placements, Factory factory) {
  if (name.empty() || factory == nullptr || placements.empty()) {
    throw std::invalid_argument("AppRegistry::Register: bad registration for " + name);
  }
  entries_[name] = Entry{std::move(placements), std::move(factory)};
}

bool AppRegistry::Has(const std::string& name) const {
  return entries_.count(name) != 0;
}

bool AppRegistry::Supports(const std::string& name, PlacementKind placement) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return false;
  }
  const auto& placements = it->second.placements;
  return std::find(placements.begin(), placements.end(), placement) != placements.end();
}

std::vector<std::string> AppRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    names.push_back(name);
  }
  return names;
}

std::vector<PlacementKind> AppRegistry::Placements(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument("AppRegistry: unknown app " + name);
  }
  return it->second.placements;
}

std::unique_ptr<App> AppRegistry::Create(const std::string& name,
                                         PlacementKind placement,
                                         const AppFactoryEnv& env) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument("AppRegistry: unknown app " + name);
  }
  if (!Supports(name, placement)) {
    throw std::invalid_argument("AppRegistry: " + name + " does not support the " +
                                PlacementKindName(placement) + " placement");
  }
  std::unique_ptr<App> app = it->second.factory(placement, env);
  if (app == nullptr) {
    throw std::logic_error("AppRegistry: factory for " + name + " returned null");
  }
  return app;
}

AppRegistry& AppRegistry::Global() {
  static AppRegistry* registry = [] {
    const std::vector<PlacementKind> all(std::begin(kAllPlacements),
                                         std::end(kAllPlacements));
    auto* r = new AppRegistry();
    r->Register("kvs", all, MakeKvs);
    r->Register("dns", all, MakeDns);
    r->Register("paxos-leader", all,
                [](PlacementKind placement, const AppFactoryEnv& env) {
                  return MakePaxosRole(P4xosRole::kLeader, placement, env);
                });
    r->Register("paxos-acceptor", all,
                [](PlacementKind placement, const AppFactoryEnv& env) {
                  return MakePaxosRole(P4xosRole::kAcceptor, placement, env);
                });
    r->Register("paxos-learner", {PlacementKind::kHost},
                [](PlacementKind placement, const AppFactoryEnv& env)
                    -> std::unique_ptr<App> {
                  (void)placement;
                  return std::make_unique<SoftwareLearner>(RequireGroup(env),
                                                           env.paxos_software);
                });
    return r;
  }();
  return *registry;
}

}  // namespace incod
