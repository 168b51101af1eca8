// Paxos wire messages (struct-only).
//
// Split from paxos_msg.h so packet.h can include the message struct for the
// payload variant without a circular include; paxos_msg.h re-exports this
// alongside the group configuration and packet-building helpers.
#ifndef INCOD_SRC_PAXOS_PAXOS_WIRE_H_
#define INCOD_SRC_PAXOS_PAXOS_WIRE_H_

#include <cstdint>

#include "src/net/node.h"

namespace incod {

enum class PaxosMsgType : uint8_t {
  kClientRequest,   // client -> leader service
  kPhase1a,         // leader -> acceptors (prepare; gap recovery)
  kPhase1b,         // acceptor -> leader (promise / NACK with hints, or
                    // `trimmed`: the instance is below the trim watermark)
  kPhase2a,         // leader -> acceptors (accept)
  kPhase2b,         // acceptor -> learners (accepted)
  kFillRequest,     // learner -> leader service (gap re-initiation, §9.2)
  kClientResponse,  // learner -> client
  kTrim,            // learner -> acceptors (highest contiguous delivered
                    // instance: the acceptors may drop the log below it)
};

const char* PaxosMsgTypeName(PaxosMsgType type);

// A consensus value: the client request id. 0 is reserved for no-op.
using PaxosValue = uint64_t;
constexpr PaxosValue kPaxosNoop = 0;

struct PaxosMessage {
  PaxosMsgType type = PaxosMsgType::kClientRequest;
  // Phase1b: the instance was trimmed, i.e. decided and delivered at every
  // learner. Carries no vote; `last_voted_instance` still rides along.
  bool trimmed = false;
  uint32_t instance = 0;  // 1-based; 0 means "none".
  uint16_t round = 0;     // Ballot of the sender (leader) or promised round.
  uint16_t vround = 0;    // Phase1b: round of the reported accepted value.
  PaxosValue value = kPaxosNoop;
  NodeId client = 0;      // Originator of the value (reply target).
  uint32_t sender_id = 0;               // Role id (acceptor id; learner index
                                        // for kTrim) of the sender.
  uint32_t last_voted_instance = 0;     // §9.2 piggyback; 0 = never voted.
};

}  // namespace incod

#endif  // INCOD_SRC_PAXOS_PAXOS_WIRE_H_
