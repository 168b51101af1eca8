// Paxos protocol messages and group configuration (§3.2, §9.2).
//
// We implement the message vocabulary of Lamport's single-decree Paxos run
// over a sequence of instances (Multi-Paxos), matching P4xos: client
// requests reach a leader (coordinator) which assigns monotonically
// increasing instance numbers and runs phase 2 against the acceptors;
// learners deliver on a quorum of matching phase-2b votes.
//
// Two extensions from §9.2 support on-demand leader migration:
//  - acceptors piggyback their last-voted-upon instance on every response,
//    so a fresh leader can learn the next usable sequence number, and
//  - learners detect instance gaps and ask the leader to re-initiate them
//    (delivering a no-op when no value was previously voted).
// Logs stay bounded by the standard Multi-Paxos trim (as in libpaxos):
// learners announce their highest contiguous delivered instance (kTrim),
// acceptors drop every instance at or below the minimum announcement and
// answer a later phase 1a/2a for such an instance with a `trimmed` 1b.
#ifndef INCOD_SRC_PAXOS_PAXOS_MSG_H_
#define INCOD_SRC_PAXOS_PAXOS_MSG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/paxos/paxos_wire.h"
#include "src/sim/time.h"

namespace incod {

// The consensus group layout. The leader is addressed through a stable
// *service* address; the on-demand controller re-points that address at the
// software or hardware leader by rewriting a switch forwarding rule.
struct PaxosGroupConfig {
  std::vector<NodeId> acceptors;
  std::vector<NodeId> learners;
  NodeId leader_service = 0;

  size_t QuorumSize() const { return acceptors.size() / 2 + 1; }
};

// A message queued for transmission by a role state machine.
struct PaxosOut {
  NodeId dst = 0;
  PaxosMessage msg;
};

// Paxos-over-UDP wire size used throughout (§3.4: all UDP based).
constexpr uint32_t kPaxosWireBytes = 102;

Packet MakePaxosPacket(NodeId src, NodeId dst, const PaxosMessage& msg, SimTime now);

}  // namespace incod

#endif  // INCOD_SRC_PAXOS_PAXOS_MSG_H_
