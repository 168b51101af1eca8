// Paxos role state machines (pure logic, transport-agnostic).
//
// The same LeaderState / AcceptorState / LearnerState back every deployment
// in the study — libpaxos-style kernel software, the DPDK variant, P4xos on
// the FPGA NIC, and P4xos on the switch ASIC — so a migrated role behaves
// identically wherever it runs. Each handler returns an outbox of messages;
// the deployment wrapper owns actual transmission and timers.
#ifndef INCOD_SRC_PAXOS_ROLES_H_
#define INCOD_SRC_PAXOS_ROLES_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/app/app_state.h"
#include "src/paxos/instance_ring.h"
#include "src/paxos/paxos_msg.h"
#include "src/sim/time.h"

namespace incod {

// A learner announces its highest contiguous delivered instance (kTrim)
// each time that crosses a multiple of this stride, so an acceptor's log
// holds at most about one stride plus the instances in flight.
constexpr uint32_t kPaxosTrimStride = 4096;

// ---------------------------------------------------------------- Leader --
// Coordinator: assigns instance numbers to client values and runs phase 2.
// A newly elected leader "starts with an initial sequence number of 1 and
// must learn the next sequence number that it can use" (§9.2) from the
// acceptors' piggybacked last-voted instance.
class LeaderState {
 public:
  LeaderState(PaxosGroupConfig config, uint16_t ballot);

  std::vector<PaxosOut> HandleMessage(const PaxosMessage& msg);

  // Fresh start after a migration: instance counter back to 1; in-flight
  // recovery state dropped. The ballot must exceed any prior leader's.
  void Reset(uint16_t new_ballot);

  // Begins sequence learning after a Reset: *gates client proposals* —
  // "the new leader fails to propose until it learns the latest Paxos
  // instance from the acceptors" (§9.2). With `send_probe` (an extension
  // over the paper), a phase-1 probe actively solicits a quorum of replies
  // whose piggybacked last-voted hints teach the next usable instance
  // within one round trip; any decided instance has voters in every quorum,
  // so the learned sequence cannot collide with a decided instance.
  // Without the probe (the paper's behaviour), the leader waits passively;
  // the deployment un-gates it after a timeout via AbandonSequenceLearning
  // and the first proposals teach the sequence through acceptor hints and
  // client retries — producing Fig 7's ~100 ms gap.
  std::vector<PaxosOut> StartSequenceLearning(bool send_probe = true);
  // Gives up waiting: releases (proposes) any buffered client requests at
  // the current — possibly stale — sequence position.
  std::vector<PaxosOut> AbandonSequenceLearning();
  bool awaiting_sequence() const { return awaiting_sequence_; }

  // App state contract: capture / install ballot and sequence position.
  // Restoring drops in-flight recovery state (like Reset) but continues at
  // the snapshot's sequence instead of re-learning from 1.
  void SaveTo(PaxosAppState& state) const;
  void RestoreFrom(const PaxosAppState& state);

  uint32_t next_instance() const { return next_instance_; }
  uint16_t ballot() const { return ballot_; }
  uint64_t proposals_sent() const { return proposals_; }
  uint64_t sequence_jumps() const { return sequence_jumps_; }

 private:
  struct Recovery {
    std::set<uint32_t> promised;  // Acceptor ids that answered phase 1.
    uint16_t highest_vround = 0;
    PaxosValue value = kPaxosNoop;
    NodeId client = 0;
    bool phase2_started = false;
  };

  std::vector<PaxosOut> Propose(uint32_t instance, PaxosValue value, NodeId client);
  void LearnFrom(const PaxosMessage& msg);

  PaxosGroupConfig config_;
  uint16_t ballot_;
  uint32_t next_instance_ = 1;
  std::map<uint32_t, Recovery> recoveries_;
  bool awaiting_sequence_ = false;
  std::set<uint32_t> probe_promises_;
  std::vector<PaxosMessage> pending_requests_;  // Buffered while learning.
  uint64_t proposals_ = 0;
  uint64_t sequence_jumps_ = 0;
};

// -------------------------------------------------------------- Acceptor --
class AcceptorState {
 public:
  AcceptorState(PaxosGroupConfig config, uint32_t acceptor_id);

  std::vector<PaxosOut> HandleMessage(const PaxosMessage& msg);

  uint32_t last_voted_instance() const { return last_voted_instance_; }
  uint32_t acceptor_id() const { return acceptor_id_; }
  // Every instance at or below this is trimmed: the minimum over all
  // learners' kTrim announcements (0 until each learner has announced).
  uint32_t trim_watermark() const { return trim_watermark_; }
  size_t stored_instances() const { return slots_.size(); }
  size_t ring_capacity() const { return slots_.capacity(); }

  // App state contract: the trim watermark and the per-instance vote log
  // above it, sorted by instance.
  void SaveTo(PaxosAppState& state) const;
  void RestoreFrom(const PaxosAppState& state);

 private:
  struct Slot {
    uint16_t rnd = 0;    // Highest promised round.
    uint16_t vrnd = 0;   // Round of the accepted value (0: none).
    PaxosValue value = kPaxosNoop;
    NodeId client = 0;
  };

  PaxosMessage MakePhase1b(uint32_t instance, const Slot& slot) const;
  void TrimThrough(uint32_t watermark);

  PaxosGroupConfig config_;
  uint32_t acceptor_id_;
  uint32_t last_voted_instance_ = 0;
  uint32_t trim_watermark_ = 0;
  std::vector<uint32_t> learner_marks_;  // Per learner index; 0: not announced.
  InstanceRing<Slot> slots_;             // Instances above the watermark.
};

// --------------------------------------------------------------- Learner --
class LearnerState {
 public:
  // `learner_id`: this learner's index in `config.learners`, which names it
  // in its kTrim announcements.
  explicit LearnerState(PaxosGroupConfig config, uint32_t learner_id = 0);

  std::vector<PaxosOut> HandleMessage(const PaxosMessage& msg, SimTime now);

  // Periodic gap scan (§9.2): asks the leader to re-initiate undecided
  // instances older than `gap_timeout`. Rate-limited per instance.
  std::vector<PaxosOut> CheckGaps(SimTime now, SimDuration gap_timeout);

  uint64_t delivered_count() const { return delivered_count_; }
  uint64_t noop_count() const { return noop_count_; }
  uint32_t highest_contiguous() const { return highest_contiguous_; }
  uint32_t highest_seen() const { return highest_seen_; }
  uint64_t fill_requests_sent() const { return fill_requests_; }
  // Instances above highest_contiguous() holding state (votes, an
  // out-of-order delivery or a fill-request time), and the ring they live in.
  size_t stored_instances() const { return slots_.size(); }
  size_t ring_capacity() const { return slots_.capacity(); }

 private:
  struct Slot {
    bool delivered = false;
    SimTime last_fill_request = 0;
  };
  // One acceptor's latest vote on an instance.
  struct Vote {
    bool present = false;
    uint32_t acceptor = 0;
    uint16_t round = 0;
    PaxosValue value = kPaxosNoop;
  };

  std::vector<PaxosOut> Deliver(const PaxosMessage& vote, Slot& slot);

  PaxosGroupConfig config_;
  uint32_t learner_id_;
  // Both rings hold only instances above highest_contiguous_; each
  // instance holds one Vote per acceptor of the group.
  InstanceRing<Slot> slots_;
  InstanceRing<Vote> votes_;
  uint32_t highest_contiguous_ = 0;
  uint32_t highest_seen_ = 0;
  uint64_t delivered_count_ = 0;
  uint64_t noop_count_ = 0;
  uint64_t fill_requests_ = 0;
};

}  // namespace incod

#endif  // INCOD_SRC_PAXOS_ROLES_H_
