#include "src/paxos/roles.h"

#include <algorithm>
#include <stdexcept>

namespace incod {

// ---------------------------------------------------------------- Leader --

LeaderState::LeaderState(PaxosGroupConfig config, uint16_t ballot)
    : config_(std::move(config)), ballot_(ballot) {
  if (config_.acceptors.empty()) {
    throw std::invalid_argument("LeaderState: no acceptors");
  }
  if (ballot_ == 0) {
    throw std::invalid_argument("LeaderState: ballot must be > 0");
  }
}

void LeaderState::Reset(uint16_t new_ballot) {
  if (new_ballot <= ballot_) {
    throw std::invalid_argument("LeaderState::Reset: ballot must increase");
  }
  ballot_ = new_ballot;
  next_instance_ = 1;
  recoveries_.clear();
  awaiting_sequence_ = false;
  probe_promises_.clear();
  pending_requests_.clear();
}

void LeaderState::SaveTo(PaxosAppState& state) const {
  state.ballot = ballot_;
  state.next_instance = next_instance_;
}

void LeaderState::RestoreFrom(const PaxosAppState& state) {
  ballot_ = state.ballot;
  next_instance_ = state.next_instance;
  recoveries_.clear();
  awaiting_sequence_ = false;
  probe_promises_.clear();
  pending_requests_.clear();
}

std::vector<PaxosOut> LeaderState::StartSequenceLearning(bool send_probe) {
  awaiting_sequence_ = true;
  probe_promises_.clear();
  std::vector<PaxosOut> out;
  if (!send_probe) {
    return out;
  }
  PaxosMessage probe;
  probe.type = PaxosMsgType::kPhase1a;
  probe.instance = 1;  // The probe doubles as recovery of instance 1.
  probe.round = ballot_;
  recoveries_.try_emplace(1);
  for (NodeId acceptor : config_.acceptors) {
    out.push_back(PaxosOut{acceptor, probe});
  }
  return out;
}

std::vector<PaxosOut> LeaderState::AbandonSequenceLearning() {
  std::vector<PaxosOut> out;
  if (!awaiting_sequence_) {
    return out;
  }
  awaiting_sequence_ = false;
  for (const auto& pending : pending_requests_) {
    const uint32_t instance = next_instance_++;
    auto batch = Propose(instance, pending.value, pending.client);
    out.insert(out.end(), batch.begin(), batch.end());
  }
  pending_requests_.clear();
  return out;
}

void LeaderState::LearnFrom(const PaxosMessage& msg) {
  // §9.2: acceptors piggyback their last-voted instance; the leader adopts
  // the next unused sequence number.
  if (msg.last_voted_instance >= next_instance_) {
    next_instance_ = msg.last_voted_instance + 1;
    ++sequence_jumps_;
  }
}

std::vector<PaxosOut> LeaderState::Propose(uint32_t instance, PaxosValue value,
                                           NodeId client) {
  std::vector<PaxosOut> out;
  out.reserve(config_.acceptors.size());
  PaxosMessage m;
  m.type = PaxosMsgType::kPhase2a;
  m.instance = instance;
  m.round = ballot_;
  m.value = value;
  m.client = client;
  for (NodeId acceptor : config_.acceptors) {
    out.push_back(PaxosOut{acceptor, m});
  }
  ++proposals_;
  return out;
}

std::vector<PaxosOut> LeaderState::HandleMessage(const PaxosMessage& msg) {
  switch (msg.type) {
    case PaxosMsgType::kClientRequest: {
      if (awaiting_sequence_) {
        // §9.2: a fresh leader must not propose before it has learned the
        // sequence. Buffer (bounded); overflow relies on client retries.
        if (pending_requests_.size() < 4096) {
          pending_requests_.push_back(msg);
        }
        return {};
      }
      const uint32_t instance = next_instance_++;
      return Propose(instance, msg.value, msg.client);
    }
    case PaxosMsgType::kPhase1b: {
      LearnFrom(msg);
      std::vector<PaxosOut> released;
      if (awaiting_sequence_ && msg.round == ballot_) {
        probe_promises_.insert(msg.sender_id);
        if (probe_promises_.size() >= config_.QuorumSize()) {
          awaiting_sequence_ = false;
          for (const auto& pending : pending_requests_) {
            const uint32_t instance = next_instance_++;
            auto batch = Propose(instance, pending.value, pending.client);
            released.insert(released.end(), batch.begin(), batch.end());
          }
          pending_requests_.clear();
        }
      }
      auto it = recoveries_.find(msg.instance);
      if (it == recoveries_.end()) {
        // Plain NACK (e.g. our 2a hit a higher round, or a stale-instance
        // vote): the sequence hint above is all we can use.
        return released;
      }
      if (msg.trimmed) {
        // Decided and delivered everywhere: nothing to re-propose.
        recoveries_.erase(it);
        return released;
      }
      Recovery& rec = it->second;
      if (rec.phase2_started || msg.round != ballot_) {
        return released;
      }
      rec.promised.insert(msg.sender_id);
      if (msg.vround > rec.highest_vround) {
        rec.highest_vround = msg.vround;
        rec.value = msg.value;
        rec.client = msg.client;
      }
      if (rec.promised.size() >= config_.QuorumSize()) {
        rec.phase2_started = true;
        // Re-propose the highest previously voted value, or a no-op (§9.2:
        // "If that instance has previously been voted on, then the learners
        // will receive a new value. Otherwise, they learn a no-op value.")
        const PaxosValue value = rec.highest_vround > 0 ? rec.value : kPaxosNoop;
        auto batch = Propose(msg.instance, value, rec.client);
        released.insert(released.end(), batch.begin(), batch.end());
      }
      return released;
    }
    case PaxosMsgType::kFillRequest: {
      if (msg.instance == 0) {
        return {};
      }
      if (msg.instance >= next_instance_) {
        next_instance_ = msg.instance + 1;
        ++sequence_jumps_;
      }
      auto [it, inserted] = recoveries_.try_emplace(msg.instance);
      if (!inserted && it->second.phase2_started) {
        return {};  // Already re-proposed; duplicates are harmless.
      }
      std::vector<PaxosOut> out;
      PaxosMessage m;
      m.type = PaxosMsgType::kPhase1a;
      m.instance = msg.instance;
      m.round = ballot_;
      for (NodeId acceptor : config_.acceptors) {
        out.push_back(PaxosOut{acceptor, m});
      }
      return out;
    }
    case PaxosMsgType::kPhase2b:
      LearnFrom(msg);
      return {};
    default:
      return {};
  }
}

// -------------------------------------------------------------- Acceptor --

AcceptorState::AcceptorState(PaxosGroupConfig config, uint32_t acceptor_id)
    : config_(std::move(config)), acceptor_id_(acceptor_id) {
  if (config_.learners.empty()) {
    throw std::invalid_argument("AcceptorState: no learners");
  }
  learner_marks_.assign(config_.learners.size(), 0);
}

void AcceptorState::SaveTo(PaxosAppState& state) const {
  state.acceptor_id = acceptor_id_;
  state.last_voted_instance = last_voted_instance_;
  state.trim_watermark = trim_watermark_;
  state.slots.clear();
  state.slots.reserve(slots_.size());
  const uint32_t end = slots_.base() + static_cast<uint32_t>(slots_.capacity());
  for (uint32_t instance = slots_.base(); instance != end; ++instance) {
    if (const Slot* slot = slots_.Find(instance)) {
      state.slots.push_back(
          PaxosAcceptorSlot{instance, slot->rnd, slot->vrnd, slot->value, slot->client});
    }
  }
}

void AcceptorState::RestoreFrom(const PaxosAppState& state) {
  last_voted_instance_ = state.last_voted_instance;
  slots_ = InstanceRing<Slot>();
  trim_watermark_ = 0;
  TrimThrough(state.trim_watermark);
  learner_marks_.assign(config_.learners.size(), trim_watermark_);
  for (const PaxosAcceptorSlot& s : state.slots) {
    if (Slot* slot = slots_.Get(s.instance)) {
      *slot = Slot{s.rnd, s.vrnd, s.value, s.client};
    }
  }
}

void AcceptorState::TrimThrough(uint32_t watermark) {
  if (watermark > trim_watermark_) {
    trim_watermark_ = watermark;
    slots_.DropBelow(watermark + 1);
  }
}

PaxosMessage AcceptorState::MakePhase1b(uint32_t instance, const Slot& slot) const {
  PaxosMessage m;
  m.type = PaxosMsgType::kPhase1b;
  m.instance = instance;
  m.round = slot.rnd;
  m.vround = slot.vrnd;
  m.value = slot.value;
  m.client = slot.client;
  m.sender_id = acceptor_id_;
  m.last_voted_instance = last_voted_instance_;
  return m;
}

std::vector<PaxosOut> AcceptorState::HandleMessage(const PaxosMessage& msg) {
  if ((msg.type == PaxosMsgType::kPhase1a || msg.type == PaxosMsgType::kPhase2a) &&
      trim_watermark_ != 0 && msg.instance <= trim_watermark_) {
    // The instance is decided and delivered at every learner and its slot is
    // gone: say so instead of promising or voting on an empty slot.
    PaxosMessage m;
    m.type = PaxosMsgType::kPhase1b;
    m.trimmed = true;
    m.instance = msg.instance;
    m.round = msg.round;
    m.sender_id = acceptor_id_;
    m.last_voted_instance = last_voted_instance_;
    return {PaxosOut{config_.leader_service, m}};
  }
  switch (msg.type) {
    case PaxosMsgType::kPhase1a: {
      Slot& slot = *slots_.Get(msg.instance);
      if (msg.round >= slot.rnd) {
        slot.rnd = msg.round;
      }
      // Reply in all cases; a stale prepare still teaches the leader the
      // highest round and last-voted instance.
      return {PaxosOut{config_.leader_service, MakePhase1b(msg.instance, slot)}};
    }
    case PaxosMsgType::kPhase2a: {
      Slot& slot = *slots_.Get(msg.instance);
      if (msg.round < slot.rnd) {
        // NACK to the leader service with our state (sequence hints ride
        // along, §9.2).
        return {PaxosOut{config_.leader_service, MakePhase1b(msg.instance, slot)}};
      }
      // A higher-round proposal for an instance we already voted on means a
      // freshly elected leader is re-using old sequence numbers: hint it
      // with our last-voted instance (§9.2's acceptor extension) so it can
      // jump past the previous leader's sequence.
      const bool stale_reuse = slot.vrnd != 0 && msg.round > slot.vrnd;
      slot.rnd = msg.round;
      slot.vrnd = msg.round;
      slot.value = msg.value;
      slot.client = msg.client;
      last_voted_instance_ = std::max(last_voted_instance_, msg.instance);
      PaxosMessage vote;
      vote.type = PaxosMsgType::kPhase2b;
      vote.instance = msg.instance;
      vote.round = msg.round;
      vote.value = msg.value;
      vote.client = msg.client;
      vote.sender_id = acceptor_id_;
      vote.last_voted_instance = last_voted_instance_;
      std::vector<PaxosOut> out;
      out.reserve(config_.learners.size() + 1);
      for (NodeId learner : config_.learners) {
        out.push_back(PaxosOut{learner, vote});
      }
      if (stale_reuse) {
        out.push_back(PaxosOut{config_.leader_service, MakePhase1b(msg.instance, slot)});
      }
      return out;
    }
    case PaxosMsgType::kTrim:
      // Trim to the lowest point every learner has delivered through.
      if (msg.sender_id < learner_marks_.size()) {
        learner_marks_[msg.sender_id] = std::max(learner_marks_[msg.sender_id], msg.instance);
        TrimThrough(*std::min_element(learner_marks_.begin(), learner_marks_.end()));
      }
      return {};
    default:
      return {};
  }
}

// --------------------------------------------------------------- Learner --

LearnerState::LearnerState(PaxosGroupConfig config, uint32_t learner_id)
    : config_(std::move(config)),
      learner_id_(learner_id),
      votes_(config_.acceptors.size()) {
  if (config_.acceptors.empty()) {
    throw std::invalid_argument("LearnerState: no acceptors");
  }
}

std::vector<PaxosOut> LearnerState::Deliver(const PaxosMessage& vote, Slot& slot) {
  slot.delivered = true;
  ++delivered_count_;
  const uint32_t before = highest_contiguous_;
  while (true) {
    const Slot* next = slots_.Find(highest_contiguous_ + 1);
    if (next == nullptr || !next->delivered) {
      break;
    }
    ++highest_contiguous_;
  }
  slots_.DropBelow(highest_contiguous_ + 1);
  votes_.DropBelow(highest_contiguous_ + 1);
  std::vector<PaxosOut> out;
  if (vote.value == kPaxosNoop) {
    ++noop_count_;
  } else if (vote.client != 0) {
    PaxosMessage resp;
    resp.type = PaxosMsgType::kClientResponse;
    resp.instance = vote.instance;
    resp.value = vote.value;
    resp.client = vote.client;
    out.push_back(PaxosOut{vote.client, resp});
  }
  if (highest_contiguous_ / kPaxosTrimStride != before / kPaxosTrimStride) {
    PaxosMessage trim;
    trim.type = PaxosMsgType::kTrim;
    trim.instance = highest_contiguous_;
    trim.sender_id = learner_id_;
    for (NodeId acceptor : config_.acceptors) {
      out.push_back(PaxosOut{acceptor, trim});
    }
  }
  return out;
}

std::vector<PaxosOut> LearnerState::HandleMessage(const PaxosMessage& msg, SimTime now) {
  (void)now;
  if (msg.type != PaxosMsgType::kPhase2b || msg.instance == 0) {
    return {};
  }
  highest_seen_ = std::max(highest_seen_, msg.instance);
  if (msg.instance <= highest_contiguous_) {
    return {};  // Delivered.
  }
  Slot& slot = *slots_.Get(msg.instance);
  if (slot.delivered) {
    return {};
  }
  // Record the sender's vote over its previous one (votes fill a prefix of
  // the instance's records, one per acceptor), then count the votes
  // matching this round and value.
  Vote* votes = votes_.Get(msg.instance);
  const size_t n = config_.acceptors.size();
  size_t k = 0;
  while (k < n && votes[k].present && votes[k].acceptor != msg.sender_id) {
    ++k;
  }
  if (k == n) {
    return {};  // More voters than the group has acceptors.
  }
  votes[k] = Vote{true, msg.sender_id, msg.round, msg.value};
  size_t matching = 0;
  for (k = 0; k < n; ++k) {
    if (votes[k].present && votes[k].round == msg.round && votes[k].value == msg.value) {
      ++matching;
    }
  }
  if (matching >= config_.QuorumSize()) {
    return Deliver(msg, slot);
  }
  return {};
}

std::vector<PaxosOut> LearnerState::CheckGaps(SimTime now, SimDuration gap_timeout) {
  std::vector<PaxosOut> out;
  if (highest_seen_ <= highest_contiguous_) {
    return out;
  }
  for (uint32_t inst = highest_contiguous_ + 1; inst <= highest_seen_; ++inst) {
    Slot& slot = *slots_.Get(inst);  // Creates an empty slot for true gaps.
    if (slot.delivered) {
      continue;
    }
    if (slot.last_fill_request != 0 && now - slot.last_fill_request < gap_timeout) {
      continue;
    }
    slot.last_fill_request = now;
    PaxosMessage m;
    m.type = PaxosMsgType::kFillRequest;
    m.instance = inst;
    out.push_back(PaxosOut{config_.leader_service, m});
    ++fill_requests_;
  }
  return out;
}

}  // namespace incod
