// P4xos: hardware deployments of the Paxos leader and acceptor roles — the
// FPGA-NIC and switch-ASIC placements of the Paxos app family.
//
// "P4xos provides P4 implementations of the leader and acceptors" (§3.2).
// The same role state machines run (a) as a unified App on the NetFPGA
// model — 10 Mmsg/s, on-chip memory only, ~10 W lower base power than LaKe
// — and (b) as a switch-hosted App on the Tofino model, processing
// consensus at line rate combined with L2 forwarding (§6).
#ifndef INCOD_SRC_PAXOS_P4XOS_H_
#define INCOD_SRC_PAXOS_P4XOS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/app/switch_app.h"
#include "src/paxos/roles.h"
#include "src/stats/counters.h"

namespace incod {

enum class P4xosRole { kLeader, kAcceptor };

const char* P4xosRoleName(P4xosRole role);

struct P4xosFpgaConfig {
  // Fully pipelined: 10 Mmsg/s on NetFPGA SUME (§3.2).
  SimDuration initiation_interval = Nanoseconds(100);
  SimDuration pipeline_latency = Nanoseconds(1300);
  // Main logical core power: P4xos base is ~10 W below LaKe (§4.3), i.e.
  // logic only, no external memories.
  double core_watts = 1.6;
  double dynamic_watts = 1.2;  // +1.2 W max under load (§4.3).
};

// Role state shared by both hardware placements: snapshot/restore through
// the typed PaxosAppState (the generic state-transfer path).
class P4xosRoleState {
 public:
  P4xosRoleState(P4xosRole role, PaxosGroupConfig group, uint32_t role_id);

  std::vector<PaxosOut> Dispatch(const PaxosMessage& msg);
  AppState Snapshot(AppProto proto, const std::string& name) const;
  void Restore(const AppState& state);

  P4xosRole role() const { return role_; }
  LeaderState* leader() { return leader_.get(); }
  AcceptorState* acceptor() { return acceptor_.get(); }

 private:
  P4xosRole role_;
  std::unique_ptr<LeaderState> leader_;
  std::unique_ptr<AcceptorState> acceptor_;
};

class P4xosFpgaApp : public App {
 public:
  // `role_address`: the address this role answers on. For a leader this is
  // usually the group's leader_service (the switch routes it here); for an
  // acceptor, the device's own address. `role_id` is the leader's ballot or
  // the acceptor's id, depending on `role`.
  P4xosFpgaApp(P4xosRole role, PaxosGroupConfig group, uint32_t role_id,
               NodeId role_address, P4xosFpgaConfig config = {});

  AppProto proto() const override { return AppProto::kPaxos; }
  std::string AppName() const override;
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kFpgaNic || placement == PlacementKind::kSmartNic;
  }

  std::vector<ModulePowerSpec> PowerModules() const;
  FpgaPipelineSpec PipelineSpec() const;
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile;
    profile.pipeline = PipelineSpec();
    profile.power_modules = PowerModules();
    profile.dynamic_watts_at_capacity = config_.dynamic_watts;
    // SmartNIC firmware (§10): ASIC engines and SoC cores lose some speed.
    profile.smartnic.asic_mpps_fraction = 0.9;
    profile.smartnic.soc_mpps_fraction = 0.6;
    return profile;
  }

  bool Matches(const Packet& packet) const override;
  void HandlePacket(AppContext& ctx, Packet packet) override;

  // Leader role only: starts §9.2 sequence learning, passively (no probe of
  // the acceptors). Call after activation and service re-pointing.
  void BeginSequenceLearning();
  // Transmits role-state output through the device's network port.
  void TransmitOutbox(std::vector<PaxosOut> outbox);

  // App state contract: ballot/sequence (leader) or vote log (acceptor).
  AppState SnapshotState() const override;
  void RestoreState(const AppState& state) override;

  P4xosRole role() const { return state_.role(); }
  LeaderState* leader() { return state_.leader(); }
  AcceptorState* acceptor() { return state_.acceptor(); }
  uint64_t messages_handled() const { return handled_.value(); }

 private:
  NodeId ReplySource() const;

  NodeId role_address_;
  P4xosFpgaConfig config_;
  P4xosRoleState state_;
  Counter handled_;
};

// Paxos in the switch pipeline, combined with L2 forwarding (§6). Consumes
// Paxos packets addressed to `role_address`; everything else forwards.
class P4xosSwitchProgram : public SwitchHostedApp {
 public:
  // `role_id`: the leader's ballot or the acceptor's id, by `role`.
  P4xosSwitchProgram(P4xosRole role, PaxosGroupConfig group, uint32_t role_id,
                     NodeId role_address);

  AppProto proto() const override { return AppProto::kPaxos; }
  std::string AppName() const override;
  // §6: running P4xos adds no more than 2 % to overall power at full load.
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile;
    profile.switch_power_overhead_at_full_load = 0.02;
    return profile;
  }

  bool Matches(const Packet& packet) const override {
    return packet.proto == AppProto::kPaxos && packet.dst == role_address_;
  }
  void HandlePacket(AppContext& ctx, Packet packet) override;

  // App state contract: ballot/sequence (leader) or vote log (acceptor).
  AppState SnapshotState() const override;
  void RestoreState(const AppState& state) override;

  P4xosRole role() const { return state_.role(); }
  LeaderState* leader() { return state_.leader(); }
  AcceptorState* acceptor() { return state_.acceptor(); }
  uint64_t messages_handled() const { return handled_.value(); }

 private:
  NodeId role_address_;
  P4xosRoleState state_;
  Counter handled_;
};

}  // namespace incod

#endif  // INCOD_SRC_PAXOS_P4XOS_H_
