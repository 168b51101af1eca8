#include "src/paxos/paxos_msg.h"

namespace incod {

const char* PaxosMsgTypeName(PaxosMsgType type) {
  switch (type) {
    case PaxosMsgType::kClientRequest:
      return "client_request";
    case PaxosMsgType::kPhase1a:
      return "phase1a";
    case PaxosMsgType::kPhase1b:
      return "phase1b";
    case PaxosMsgType::kPhase2a:
      return "phase2a";
    case PaxosMsgType::kPhase2b:
      return "phase2b";
    case PaxosMsgType::kFillRequest:
      return "fill_request";
    case PaxosMsgType::kClientResponse:
      return "client_response";
    case PaxosMsgType::kTrim:
      return "trim";
  }
  return "?";
}

Packet MakePaxosPacket(NodeId src, NodeId dst, const PaxosMessage& msg, SimTime now) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.proto = AppProto::kPaxos;
  pkt.size_bytes = kPaxosWireBytes;
  pkt.id = msg.value;
  pkt.created_at = now;
  pkt.payload = msg;
  return pkt;
}

}  // namespace incod
