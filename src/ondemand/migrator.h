// Application migrators: the "application-specific task ... in charge of the
// actual transition" (§9).
//
// A Migrator knows how to move one application between host software and a
// network offload target. Controllers (network- or host-controlled) decide
// *when*; migrators implement *how*.
//
// With the unified App contract, "how" collapses to one generic core:
// StateTransferMigrator flips the target's classifier, applies the §9.2
// park policy, and — when enabled — moves the application's typed AppState
// snapshot between the host and offload placements, for *any* registered
// app. With transfer_state off (the default) it is the paper's KVS/DNS
// classifier flip: caches re-warm instead of being transferred.
// PaxosLeaderMigrator layers the §9.2 leader election (switch-rule rewrite
// + ballot/sequence choreography) on the same core.
#ifndef INCOD_SRC_ONDEMAND_MIGRATOR_H_
#define INCOD_SRC_ONDEMAND_MIGRATOR_H_

#include <optional>
#include <vector>

#include "src/app/app.h"
#include "src/device/offload_target.h"
#include "src/net/switch.h"
#include "src/paxos/p4xos.h"
#include "src/paxos/software_roles.h"
#include "src/sim/simulation.h"

namespace incod {

enum class Placement { kHost, kNetwork };

const char* PlacementName(Placement placement);

struct TransitionEvent {
  SimTime at = 0;
  Placement to = Placement::kHost;
};

// Where an application currently runs, and how to move it.
class Migrator {
 public:
  virtual ~Migrator() = default;

  virtual void ShiftToNetwork() = 0;
  virtual void ShiftToHost() = 0;

  Placement placement() const { return placement_; }
  const std::vector<TransitionEvent>& transitions() const { return transitions_; }

 protected:
  void RecordTransition(SimTime at, Placement to) {
    placement_ = to;
    transitions_.push_back(TransitionEvent{at, to});
  }

 private:
  Placement placement_ = Placement::kHost;
  std::vector<TransitionEvent> transitions_;
};

// §9.2 discusses three ways to park the inactive hardware app:
//   kGatedPark  — "keeps LaKe programmed but inactive": clock-gated logic,
//                 memories in reset. The paper's choice ("the best of both
//                 performance and power efficiency worlds"). Caches re-warm
//                 after each shift.
//   kKeepWarm   — keep the app's memories live while the host serves:
//                 instant warm shifts, "reduced power saving".
//   kReprogram  — load the bitstream only when needed (partial
//                 reconfiguration): deepest idle power (app modules power
//                 gated) but "a momentary traffic halt" on every shift.
enum class ParkPolicy { kGatedPark, kKeepWarm, kReprogram };

const char* ParkPolicyName(ParkPolicy policy);

// Generic placement migrator: classifier flip + park policy on any
// OffloadTarget, plus an optional typed-state transfer between the host and
// offload placements of the app. Works for any registered app — the state
// moves through the App snapshot/restore contract, not per-app plumbing.
class StateTransferMigrator : public Migrator {
 public:
  struct Options {
    // Reconfiguration halt; only used by FromPolicy(kReprogram).
    SimDuration reprogram_halt = 0;
    // While parked, every policy but kKeepWarm clock-gates the target and
    // holds its memories in reset.
    ParkPolicy policy = ParkPolicy::kGatedPark;
    // Move the outgoing placement's AppState into the incoming one on every
    // shift. Off by default (the paper's shifts re-warm caches, §9.2); on,
    // the incoming placement starts warm.
    bool transfer_state = false;

    static Options FromPolicy(ParkPolicy policy,
                              SimDuration reprogram_halt = Milliseconds(40));
  };

  // `host_app` / `offload_app` are the two placements of the application
  // (may be null when transfer_state is off — the flip needs neither).
  StateTransferMigrator(Simulation& sim, OffloadTarget& target, Options options,
                        App* host_app = nullptr, App* offload_app = nullptr);
  StateTransferMigrator(Simulation& sim, OffloadTarget& target)
      : StateTransferMigrator(sim, target, Options{}) {}

  void ShiftToNetwork() override;
  void ShiftToHost() override;

  // Crash-recovery surface. AbandonToHost is ShiftToHost minus the state
  // transfer: the offload placement is dead, so nothing can be snapshotted
  // out of it — the classifier flips home and the park state is applied, but
  // the host app keeps whatever it had (or gets a checkpoint restored
  // separately). Safe on a killed target: only classifier/park setters run.
  virtual void AbandonToHost();
  // Snapshot of the *offload* placement's typed state, for periodic
  // checkpointing to the home host. Empty unless the app is offloaded and
  // has actually served there (mid-reprogram snapshots would be empty-state).
  std::optional<AppState> CheckpointOffloadState() const;
  // Installs a previously-taken checkpoint into the given placement's app,
  // running the same MutateStateForTransfer hook a live transfer would (the
  // Paxos ballot bump applies to restores too).
  void RestoreCheckpointTo(Placement to, AppState state);
  bool offload_served() const { return offload_served_; }
  uint64_t checkpoint_restores() const { return checkpoint_restores_; }

  const Options& options() const { return options_; }
  // Warm/cold knob for subsequent shifts: on, every shift carries the typed
  // AppState snapshot; off, the paper's classifier-flip (caches re-warm).
  // The rack orchestrator applies each app's per-app policy through this.
  void SetTransferState(bool enabled) { options_.transfer_state = enabled; }
  bool transfer_state() const { return options_.transfer_state; }
  OffloadTarget& target() { return target_; }
  const OffloadTarget& target() const { return target_; }
  App* host_app() const { return host_app_; }
  App* offload_app() const { return offload_app_; }
  uint64_t state_transfers() const { return state_transfers_; }

 protected:
  Simulation& sim() { return sim_; }
  // Hook: adjust the snapshot in flight (e.g. the Paxos ballot bump).
  virtual void MutateStateForTransfer(AppState& state, Placement to) {
    (void)state;
    (void)to;
  }

 private:
  void TransferTo(Placement to);
  void ApplyParkedState();

  Simulation& sim_;
  OffloadTarget& target_;
  Options options_;
  App* host_app_;
  App* offload_app_;
  // The offload app has been activated since the last host shift; a shift
  // back before activation (mid-reprogram) must not transfer its state.
  bool offload_served_ = false;
  uint64_t state_transfers_ = 0;
  uint64_t checkpoint_restores_ = 0;
};

// Paxos leader migrator (§9.2): "we use a centralized controller to initiate
// the shift ... the controller modifies switch forwarding rules to send
// messages to the new leader". Layers leader election on the generic core:
//   * transfer_state off (the paper): the incoming leader Reset()s to a
//     higher ballot, starts from sequence 1, and re-learns the next usable
//     instance from acceptor hints and client retries — Fig 7's ~100 ms gap.
//   * transfer_state on (the generic path): ballot and sequence ride the
//     typed snapshot, so the incoming leader continues without a gap.
class PaxosLeaderMigrator : public StateTransferMigrator {
 public:
  // The paper's sequence learning: the incoming leader waits passively for
  // sequence hints (no phase-1 probe); buffered proposals are released after
  // this timeout, and client retries drive recovery — Fig 7's ~100 ms gap.
  static constexpr SimDuration kLearningTimeout = Milliseconds(100);

  PaxosLeaderMigrator(Simulation& sim, L2Switch& sw, NodeId leader_service,
                      SoftwareLeader& software_leader, int software_port,
                      OffloadTarget& hardware_target, P4xosFpgaApp& hardware_leader,
                      int hardware_port);

  void ShiftToNetwork() override;
  void ShiftToHost() override;
  // Failover: the hardware leader died, so there is no outgoing state to
  // carry — the software leader Reset()s to a fresh higher ballot and
  // re-learns (or a checkpoint restore follows and supersedes the learning).
  void AbandonToHost() override;

  uint16_t current_ballot() const { return ballot_; }

 protected:
  void MutateStateForTransfer(AppState& state, Placement to) override;

 private:
  void RepointService(int port);
  void ArmLearningTimeout(Placement for_placement);

  L2Switch& switch_;
  NodeId leader_service_;
  SoftwareLeader& software_leader_;
  int software_port_;
  P4xosFpgaApp& hardware_leader_;
  int hardware_port_;
  uint16_t ballot_;
};

}  // namespace incod

#endif  // INCOD_SRC_ONDEMAND_MIGRATOR_H_
