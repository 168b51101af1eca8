// Tests for the Paxos role state machines: protocol correctness, the §9.2
// migration extensions, and a randomized safety property.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "src/app/app_state.h"
#include "src/paxos/paxos_msg.h"
#include "src/paxos/roles.h"
#include "src/sim/random.h"

namespace incod {
namespace {

PaxosGroupConfig ThreeAcceptorGroup() {
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;
  return group;
}

PaxosMessage ClientRequest(PaxosValue value, NodeId client = 100) {
  PaxosMessage msg;
  msg.type = PaxosMsgType::kClientRequest;
  msg.value = value;
  msg.client = client;
  return msg;
}

PaxosMessage Accept(uint32_t instance, uint16_t round = 1) {
  PaxosMessage msg;
  msg.type = PaxosMsgType::kPhase2a;
  msg.instance = instance;
  msg.round = round;
  msg.value = 1000 + instance;
  msg.client = 100;
  return msg;
}

PaxosMessage Trim(uint32_t watermark, uint32_t learner_id = 0) {
  PaxosMessage msg;
  msg.type = PaxosMsgType::kTrim;
  msg.instance = watermark;
  msg.sender_id = learner_id;
  return msg;
}

PaxosMessage TrimmedPromise(uint32_t instance, uint16_t round, uint32_t sender,
                            uint32_t last_voted) {
  PaxosMessage msg;
  msg.type = PaxosMsgType::kPhase1b;
  msg.trimmed = true;
  msg.instance = instance;
  msg.round = round;
  msg.sender_id = sender;
  msg.last_voted_instance = last_voted;
  return msg;
}

TEST(PaxosConfigTest, QuorumSizes) {
  PaxosGroupConfig group = ThreeAcceptorGroup();
  EXPECT_EQ(group.QuorumSize(), 2u);
  group.acceptors = {1, 2, 3, 4, 5};
  EXPECT_EQ(group.QuorumSize(), 3u);
  group.acceptors = {1};
  EXPECT_EQ(group.QuorumSize(), 1u);
}

TEST(LeaderTest, AssignsMonotonicInstances) {
  LeaderState leader(ThreeAcceptorGroup(), 1);
  const auto out1 = leader.HandleMessage(ClientRequest(1001));
  const auto out2 = leader.HandleMessage(ClientRequest(1002));
  ASSERT_EQ(out1.size(), 3u);  // 2a to each acceptor.
  ASSERT_EQ(out2.size(), 3u);
  EXPECT_EQ(out1[0].msg.type, PaxosMsgType::kPhase2a);
  EXPECT_EQ(out1[0].msg.instance, 1u);
  EXPECT_EQ(out2[0].msg.instance, 2u);
  EXPECT_EQ(out1[0].msg.value, 1001u);
  EXPECT_EQ(leader.next_instance(), 3u);
}

TEST(LeaderTest, LearnsSequenceFromPhase1bHint) {
  LeaderState leader(ThreeAcceptorGroup(), 2);
  PaxosMessage hint;
  hint.type = PaxosMsgType::kPhase1b;
  hint.instance = 1;
  hint.last_voted_instance = 500;  // §9.2: acceptor piggyback.
  leader.HandleMessage(hint);
  EXPECT_EQ(leader.next_instance(), 501u);
  EXPECT_EQ(leader.sequence_jumps(), 1u);
  // Next proposal uses the learned sequence.
  const auto out = leader.HandleMessage(ClientRequest(1));
  EXPECT_EQ(out[0].msg.instance, 501u);
}

TEST(LeaderTest, StaleHintDoesNotRegress) {
  LeaderState leader(ThreeAcceptorGroup(), 1);
  for (int i = 0; i < 10; ++i) {
    leader.HandleMessage(ClientRequest(static_cast<PaxosValue>(i + 1)));
  }
  PaxosMessage hint;
  hint.type = PaxosMsgType::kPhase1b;
  hint.last_voted_instance = 3;  // Older than what we've assigned.
  leader.HandleMessage(hint);
  EXPECT_EQ(leader.next_instance(), 11u);
}

TEST(LeaderTest, ResetStartsFromOne) {
  LeaderState leader(ThreeAcceptorGroup(), 1);
  leader.HandleMessage(ClientRequest(1));
  leader.Reset(2);
  EXPECT_EQ(leader.next_instance(), 1u);  // §9.2.
  EXPECT_EQ(leader.ballot(), 2u);
  EXPECT_THROW(leader.Reset(2), std::invalid_argument);  // Must increase.
}

TEST(LeaderTest, FillRequestRunsPhase1) {
  LeaderState leader(ThreeAcceptorGroup(), 3);
  PaxosMessage fill;
  fill.type = PaxosMsgType::kFillRequest;
  fill.instance = 7;
  const auto out = leader.HandleMessage(fill);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase1a);
  EXPECT_EQ(out[0].msg.instance, 7u);
  EXPECT_EQ(out[0].msg.round, 3u);
  // The fill also teaches the sequence past the gap.
  EXPECT_EQ(leader.next_instance(), 8u);
}

TEST(LeaderTest, Phase1QuorumReproposesHighestVotedValue) {
  LeaderState leader(ThreeAcceptorGroup(), 5);
  PaxosMessage fill;
  fill.type = PaxosMsgType::kFillRequest;
  fill.instance = 2;
  leader.HandleMessage(fill);
  // Two promises: acceptor 0 never voted; acceptor 1 voted value 77 at
  // round 4.
  PaxosMessage p0;
  p0.type = PaxosMsgType::kPhase1b;
  p0.instance = 2;
  p0.round = 5;
  p0.sender_id = 0;
  const auto out0 = leader.HandleMessage(p0);
  EXPECT_TRUE(out0.empty());  // No quorum yet.
  PaxosMessage p1 = p0;
  p1.sender_id = 1;
  p1.vround = 4;
  p1.value = 77;
  p1.client = 100;
  const auto out1 = leader.HandleMessage(p1);
  ASSERT_EQ(out1.size(), 3u);
  EXPECT_EQ(out1[0].msg.type, PaxosMsgType::kPhase2a);
  EXPECT_EQ(out1[0].msg.value, 77u);
  // Third promise after phase 2 started: no duplicate proposal.
  PaxosMessage p2 = p0;
  p2.sender_id = 2;
  EXPECT_TRUE(leader.HandleMessage(p2).empty());
}

TEST(LeaderTest, Phase1QuorumProposesNoopWhenNothingVoted) {
  LeaderState leader(ThreeAcceptorGroup(), 5);
  PaxosMessage fill;
  fill.type = PaxosMsgType::kFillRequest;
  fill.instance = 3;
  leader.HandleMessage(fill);
  PaxosMessage p0;
  p0.type = PaxosMsgType::kPhase1b;
  p0.instance = 3;
  p0.round = 5;
  p0.sender_id = 0;
  leader.HandleMessage(p0);
  PaxosMessage p1 = p0;
  p1.sender_id = 1;
  const auto out = leader.HandleMessage(p1);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].msg.value, kPaxosNoop);  // §9.2: learn a no-op.
}

TEST(LeaderTest, RejectsBadConstruction) {
  PaxosGroupConfig empty;
  empty.learners = {30};
  empty.leader_service = 200;
  EXPECT_THROW(LeaderState(empty, 1), std::invalid_argument);
  EXPECT_THROW(LeaderState(ThreeAcceptorGroup(), 0), std::invalid_argument);
}

TEST(AcceptorTest, VotesAndNotifiesLearners) {
  AcceptorState acceptor(ThreeAcceptorGroup(), 0);
  PaxosMessage p2a;
  p2a.type = PaxosMsgType::kPhase2a;
  p2a.instance = 1;
  p2a.round = 1;
  p2a.value = 42;
  p2a.client = 100;
  const auto out = acceptor.HandleMessage(p2a);
  ASSERT_EQ(out.size(), 1u);  // One learner.
  EXPECT_EQ(out[0].dst, 30u);
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase2b);
  EXPECT_EQ(out[0].msg.value, 42u);
  EXPECT_EQ(out[0].msg.last_voted_instance, 1u);
  EXPECT_EQ(acceptor.last_voted_instance(), 1u);
}

TEST(AcceptorTest, NacksLowerRound) {
  AcceptorState acceptor(ThreeAcceptorGroup(), 0);
  PaxosMessage high;
  high.type = PaxosMsgType::kPhase2a;
  high.instance = 1;
  high.round = 5;
  high.value = 1;
  acceptor.HandleMessage(high);
  PaxosMessage low = high;
  low.round = 2;
  low.value = 9;
  const auto out = acceptor.HandleMessage(low);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 200u);  // NACK to the leader service.
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase1b);
  EXPECT_EQ(out[0].msg.round, 5u);  // Reports the promised round.
}

TEST(AcceptorTest, PromiseRecordsRoundAndReportsState) {
  AcceptorState acceptor(ThreeAcceptorGroup(), 1);
  PaxosMessage p2a;
  p2a.type = PaxosMsgType::kPhase2a;
  p2a.instance = 4;
  p2a.round = 2;
  p2a.value = 55;
  p2a.client = 100;
  acceptor.HandleMessage(p2a);
  PaxosMessage p1a;
  p1a.type = PaxosMsgType::kPhase1a;
  p1a.instance = 4;
  p1a.round = 6;
  const auto out = acceptor.HandleMessage(p1a);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase1b);
  EXPECT_EQ(out[0].msg.vround, 2u);
  EXPECT_EQ(out[0].msg.value, 55u);
  EXPECT_EQ(out[0].msg.sender_id, 1u);
}

TEST(AcceptorTest, StaleInstanceReuseHintsLeader) {
  // A fresh leader re-using instance 1 at a higher round triggers the §9.2
  // sequence hint toward the leader service.
  AcceptorState acceptor(ThreeAcceptorGroup(), 0);
  PaxosMessage old_2a;
  old_2a.type = PaxosMsgType::kPhase2a;
  old_2a.instance = 1;
  old_2a.round = 1;
  old_2a.value = 11;
  acceptor.HandleMessage(old_2a);
  PaxosMessage new_2a = old_2a;
  new_2a.round = 2;  // New leader's ballot.
  new_2a.value = 22;
  const auto out = acceptor.HandleMessage(new_2a);
  ASSERT_EQ(out.size(), 2u);  // Vote to learner + hint to leader.
  EXPECT_EQ(out[0].dst, 30u);
  EXPECT_EQ(out[1].dst, 200u);
  EXPECT_EQ(out[1].msg.last_voted_instance, 1u);
}

TEST(AcceptorTest, RejectsGroupWithoutLearners) {
  PaxosGroupConfig group = ThreeAcceptorGroup();
  group.learners.clear();
  EXPECT_THROW(AcceptorState(group, 0), std::invalid_argument);
}

TEST(AcceptorTest, TrimmedInstanceGetsExplicitReply) {
  AcceptorState acceptor(ThreeAcceptorGroup(), 2);
  for (uint32_t i = 1; i <= 10; ++i) {
    acceptor.HandleMessage(Accept(i));
  }
  EXPECT_TRUE(acceptor.HandleMessage(Trim(6)).empty());
  EXPECT_EQ(acceptor.trim_watermark(), 6u);
  EXPECT_EQ(acceptor.stored_instances(), 4u);  // 7..10.

  // Phase 1a at and below the watermark: a trimmed 1b, never a promise on
  // an empty slot.
  for (uint32_t instance : {5u, 6u}) {
    PaxosMessage p1a;
    p1a.type = PaxosMsgType::kPhase1a;
    p1a.instance = instance;
    p1a.round = 2;
    const auto out = acceptor.HandleMessage(p1a);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dst, 200u);
    EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase1b);
    EXPECT_TRUE(out[0].msg.trimmed);
    EXPECT_EQ(out[0].msg.instance, instance);
    EXPECT_EQ(out[0].msg.round, 2);
    EXPECT_EQ(out[0].msg.vround, 0);
    EXPECT_EQ(out[0].msg.value, kPaxosNoop);
    EXPECT_EQ(out[0].msg.sender_id, 2u);
    EXPECT_EQ(out[0].msg.last_voted_instance, 10u);
  }
  // Phase 2a below the watermark: the same answer, and no fresh vote.
  const auto out = acceptor.HandleMessage(Accept(3, 5));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase1b);
  EXPECT_TRUE(out[0].msg.trimmed);
  EXPECT_EQ(out[0].msg.last_voted_instance, 10u);
  EXPECT_EQ(acceptor.stored_instances(), 4u);
  // Above the watermark the log still answers normally.
  PaxosMessage p1a;
  p1a.type = PaxosMsgType::kPhase1a;
  p1a.instance = 7;
  p1a.round = 2;
  const auto promise = acceptor.HandleMessage(p1a);
  ASSERT_EQ(promise.size(), 1u);
  EXPECT_FALSE(promise[0].msg.trimmed);
  EXPECT_EQ(promise[0].msg.vround, 1);
  EXPECT_EQ(promise[0].msg.value, 1007u);
}

TEST(AcceptorTest, TrimsOnlyToMinimumLearnerWatermark) {
  PaxosGroupConfig group = ThreeAcceptorGroup();
  group.learners = {30, 31};
  AcceptorState acceptor(group, 0);
  for (uint32_t i = 1; i <= 20; ++i) {
    acceptor.HandleMessage(Accept(i));
  }
  // Learner 1 has not announced yet: nothing is trimmed.
  acceptor.HandleMessage(Trim(10, 0));
  EXPECT_EQ(acceptor.trim_watermark(), 0u);
  EXPECT_EQ(acceptor.stored_instances(), 20u);
  acceptor.HandleMessage(Trim(5, 1));
  EXPECT_EQ(acceptor.trim_watermark(), 5u);
  EXPECT_EQ(acceptor.stored_instances(), 15u);
  // Learner 1 overtakes learner 0: the minimum is now learner 0's 10.
  acceptor.HandleMessage(Trim(15, 1));
  EXPECT_EQ(acceptor.trim_watermark(), 10u);
  EXPECT_EQ(acceptor.stored_instances(), 10u);
  // A stale (reordered) announcement and an unknown learner change nothing.
  acceptor.HandleMessage(Trim(3, 0));
  acceptor.HandleMessage(Trim(19, 7));
  EXPECT_EQ(acceptor.trim_watermark(), 10u);
  EXPECT_EQ(acceptor.stored_instances(), 10u);
}

TEST(LeaderTest, TrimmedRecoveryIsNotReproposedButTeachesSequence) {
  LeaderState leader(ThreeAcceptorGroup(), 3);
  PaxosMessage fill;
  fill.type = PaxosMsgType::kFillRequest;
  fill.instance = 4;
  leader.HandleMessage(fill);
  const uint64_t jumps = leader.sequence_jumps();
  for (uint32_t sender = 0; sender < 3; ++sender) {
    for (const auto& out : leader.HandleMessage(TrimmedPromise(4, 3, sender, 50))) {
      EXPECT_NE(out.msg.type, PaxosMsgType::kPhase2a);
    }
  }
  EXPECT_EQ(leader.next_instance(), 51u);
  EXPECT_GT(leader.sequence_jumps(), jumps);
  // The recovery is closed: a late ordinary promise does not re-open it.
  PaxosMessage late;
  late.type = PaxosMsgType::kPhase1b;
  late.instance = 4;
  late.round = 3;
  late.sender_id = 1;
  late.vround = 1;
  late.value = 9;
  EXPECT_TRUE(leader.HandleMessage(late).empty());
}

TEST(LeaderTest, TrimmedSequenceProbeJumpsWithoutReproposing) {
  LeaderState leader(ThreeAcceptorGroup(), 1);
  leader.HandleMessage(ClientRequest(1));
  leader.Reset(2);
  leader.StartSequenceLearning();  // Probes instance 1, long trimmed.
  EXPECT_TRUE(leader.HandleMessage(ClientRequest(55)).empty());
  EXPECT_TRUE(leader.HandleMessage(TrimmedPromise(1, 2, 0, 9000)).empty());
  const auto out = leader.HandleMessage(TrimmedPromise(1, 2, 1, 8999));
  EXPECT_FALSE(leader.awaiting_sequence());
  size_t proposals = 0;
  for (const auto& m : out) {
    ASSERT_EQ(m.msg.type, PaxosMsgType::kPhase2a);
    EXPECT_EQ(m.msg.instance, 9001u);  // Never instance 1.
    EXPECT_EQ(m.msg.value, 55u);
    ++proposals;
  }
  EXPECT_EQ(proposals, 3u);
  EXPECT_EQ(leader.next_instance(), 9002u);
  // The third acceptor's trimmed answer proposes nothing more.
  EXPECT_TRUE(leader.HandleMessage(TrimmedPromise(1, 2, 2, 9000)).empty());
}

TEST(PaxosAppStateTest, TrimWatermarkRoundTripsBitIdentically) {
  AcceptorState source(ThreeAcceptorGroup(), 1);
  for (uint32_t i = 1; i <= 30; ++i) {
    source.HandleMessage(Accept(i));
  }
  source.HandleMessage(Trim(12));
  PaxosAppState px;
  source.SaveTo(px);
  EXPECT_EQ(px.trim_watermark, 12u);
  ASSERT_EQ(px.slots.size(), 18u);  // The checkpoint holds the window only.
  EXPECT_EQ(px.slots.front().instance, 13u);
  EXPECT_EQ(px.slots.back().instance, 30u);

  AcceptorState restored(ThreeAcceptorGroup(), 1);
  restored.RestoreFrom(px);
  PaxosAppState again;
  restored.SaveTo(again);
  EXPECT_EQ(SerializeAppState(AppState{AppProto::kPaxos, "acceptor", px}),
            SerializeAppState(AppState{AppProto::kPaxos, "acceptor", again}));
  EXPECT_EQ(restored.trim_watermark(), 12u);
  EXPECT_EQ(restored.stored_instances(), 18u);
  EXPECT_TRUE(restored.HandleMessage(Accept(12, 2))[0].msg.trimmed);
  EXPECT_EQ(restored.HandleMessage(Accept(13, 2))[0].msg.type, PaxosMsgType::kPhase2b);
  // The watermark is part of the encoding.
  PaxosAppState untrimmed = px;
  untrimmed.trim_watermark = 0;
  EXPECT_NE(SerializeAppState(AppState{AppProto::kPaxos, "acceptor", px}),
            SerializeAppState(AppState{AppProto::kPaxos, "acceptor", untrimmed}));
}

TEST(LearnerTest, DeliversOnQuorum) {
  LearnerState learner(ThreeAcceptorGroup());
  PaxosMessage vote;
  vote.type = PaxosMsgType::kPhase2b;
  vote.instance = 1;
  vote.round = 1;
  vote.value = 42;
  vote.client = 100;
  vote.sender_id = 0;
  EXPECT_TRUE(learner.HandleMessage(vote, 0).empty());
  vote.sender_id = 1;
  const auto out = learner.HandleMessage(vote, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 100u);
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kClientResponse);
  EXPECT_EQ(out[0].msg.value, 42u);
  EXPECT_EQ(learner.delivered_count(), 1u);
  EXPECT_EQ(learner.highest_contiguous(), 1u);
  // Third vote: already delivered, no duplicate response.
  vote.sender_id = 2;
  EXPECT_TRUE(learner.HandleMessage(vote, 0).empty());
  EXPECT_EQ(learner.delivered_count(), 1u);
}

TEST(LearnerTest, MixedRoundsDoNotCountTogether) {
  LearnerState learner(ThreeAcceptorGroup());
  PaxosMessage vote;
  vote.type = PaxosMsgType::kPhase2b;
  vote.instance = 1;
  vote.round = 1;
  vote.value = 42;
  vote.sender_id = 0;
  learner.HandleMessage(vote, 0);
  vote.round = 2;  // Different round: not a matching quorum with the first.
  vote.sender_id = 1;
  EXPECT_TRUE(learner.HandleMessage(vote, 0).empty());
  // Same round 2 from another acceptor completes the quorum.
  vote.sender_id = 2;
  EXPECT_EQ(learner.HandleMessage(vote, 0).size(), 0u);  // Noop? value 42,
  // but client is 0 in these votes -> no client response, still delivered.
  EXPECT_EQ(learner.delivered_count(), 1u);
}

TEST(LearnerTest, NoopDeliveryProducesNoClientResponse) {
  LearnerState learner(ThreeAcceptorGroup());
  PaxosMessage vote;
  vote.type = PaxosMsgType::kPhase2b;
  vote.instance = 1;
  vote.round = 1;
  vote.value = kPaxosNoop;
  vote.client = 100;
  vote.sender_id = 0;
  learner.HandleMessage(vote, 0);
  vote.sender_id = 1;
  EXPECT_TRUE(learner.HandleMessage(vote, 0).empty());
  EXPECT_EQ(learner.noop_count(), 1u);
}

TEST(LearnerTest, GapDetectionRequestsFill) {
  LearnerState learner(ThreeAcceptorGroup());
  // Deliver instance 3 only: instances 1-2 are gaps.
  PaxosMessage vote;
  vote.type = PaxosMsgType::kPhase2b;
  vote.instance = 3;
  vote.round = 1;
  vote.value = 9;
  vote.sender_id = 0;
  learner.HandleMessage(vote, 0);
  vote.sender_id = 1;
  learner.HandleMessage(vote, 0);
  EXPECT_EQ(learner.highest_contiguous(), 0u);

  auto fills = learner.CheckGaps(Milliseconds(100), Milliseconds(50));
  ASSERT_EQ(fills.size(), 2u);
  EXPECT_EQ(fills[0].msg.type, PaxosMsgType::kFillRequest);
  EXPECT_EQ(fills[0].msg.instance, 1u);
  EXPECT_EQ(fills[1].msg.instance, 2u);
  EXPECT_EQ(fills[0].dst, 200u);
  // Within the timeout, no duplicate fill requests.
  EXPECT_TRUE(learner.CheckGaps(Milliseconds(120), Milliseconds(50)).empty());
  // After the timeout they fire again.
  EXPECT_EQ(learner.CheckGaps(Milliseconds(200), Milliseconds(50)).size(), 2u);
  EXPECT_EQ(learner.fill_requests_sent(), 4u);
}

TEST(LearnerTest, ContiguityAdvancesThroughBackfill) {
  LearnerState learner(ThreeAcceptorGroup());
  auto vote_for = [&](uint32_t instance) {
    PaxosMessage vote;
    vote.type = PaxosMsgType::kPhase2b;
    vote.instance = instance;
    vote.round = 1;
    vote.value = instance * 10;
    vote.sender_id = 0;
    learner.HandleMessage(vote, 0);
    vote.sender_id = 1;
    learner.HandleMessage(vote, 0);
  };
  vote_for(2);
  vote_for(3);
  EXPECT_EQ(learner.highest_contiguous(), 0u);
  vote_for(1);
  EXPECT_EQ(learner.highest_contiguous(), 3u);
}

TEST(LearnerTest, RingStaysBoundedOverLongInOrderRun) {
  LearnerState learner(ThreeAcceptorGroup());
  const uint32_t n = 100000;
  std::vector<uint32_t> trims;
  PaxosMessage vote;
  vote.type = PaxosMsgType::kPhase2b;
  vote.round = 1;
  for (uint32_t i = 1; i <= n; ++i) {
    vote.instance = i;
    vote.value = i;
    for (uint32_t sender = 0; sender < 2; ++sender) {
      vote.sender_id = sender;
      for (const auto& out : learner.HandleMessage(vote, 0)) {
        if (out.msg.type == PaxosMsgType::kTrim) {
          EXPECT_EQ(out.msg.sender_id, 0u);
          trims.push_back(out.msg.instance);
        }
      }
    }
  }
  EXPECT_EQ(learner.highest_contiguous(), n);
  EXPECT_EQ(learner.delivered_count(), n);
  EXPECT_EQ(learner.stored_instances(), 0u);
  EXPECT_LE(learner.ring_capacity(), 16u);
  // One announcement to each of the 3 acceptors per stride crossed.
  ASSERT_EQ(trims.size(), 3u * (n / kPaxosTrimStride));
  for (size_t k = 0; k < trims.size(); ++k) {
    EXPECT_EQ(trims[k], kPaxosTrimStride * static_cast<uint32_t>(k / 3 + 1));
  }
}

TEST(LearnerTest, OutOfOrderDeliveriesWaitInTheRing) {
  LearnerState learner(ThreeAcceptorGroup());
  auto deliver = [&](uint32_t instance) {
    PaxosMessage vote;
    vote.type = PaxosMsgType::kPhase2b;
    vote.instance = instance;
    vote.round = 1;
    vote.value = instance;
    for (uint32_t sender = 0; sender < 2; ++sender) {
      vote.sender_id = sender;
      learner.HandleMessage(vote, 0);
    }
  };
  for (uint32_t i = 2; i <= 100; ++i) {
    deliver(i);  // Instance 1 is missing: everything waits above the gap.
  }
  EXPECT_EQ(learner.highest_contiguous(), 0u);
  EXPECT_EQ(learner.stored_instances(), 99u);
  deliver(1);
  EXPECT_EQ(learner.highest_contiguous(), 100u);
  EXPECT_EQ(learner.stored_instances(), 0u);
  EXPECT_EQ(learner.delivered_count(), 100u);
}

// Randomized safety property across a leader migration: under message
// loss, duplication and reordering, no instance ever delivers two
// different non-noop values across two learners. The migration follows the
// deployed protocol: the old leader is quiesced, the service re-pointed,
// and the new leader runs the sequence-learning probe before proposing.
// At random steps both learners' trim announcements are injected, carrying
// the true minimum of their contiguous delivery points, so acceptors trim
// under the same chaos and answer trimmed instances explicitly.
struct SafetyRun {
  size_t decided = 0;            // Instances delivered, summed over learners.
  uint64_t trimmed_replies = 0;  // Trimmed phase 1b answers sent.
};

SafetyRun RunSafetyScenario(uint64_t seed) {
  Rng rng(seed);
  PaxosGroupConfig group = ThreeAcceptorGroup();
  group.learners = {30, 31};
  LeaderState leader_a(group, 1);
  LeaderState leader_b(group, 2);  // The migrated-to leader.
  AcceptorState acceptors[3] = {{group, 0}, {group, 1}, {group, 2}};
  LearnerState learners[2] = {LearnerState(group, 0), LearnerState(group, 1)};
  std::map<uint32_t, PaxosValue> decided[2];
  SafetyRun run;

  std::vector<PaxosOut> wire;
  auto push = [&](std::vector<PaxosOut> msgs) {
    for (auto& m : msgs) {
      wire.push_back(std::move(m));
    }
  };
  auto to_acceptor = [&](const PaxosOut& msg) {
    auto out = acceptors[msg.dst - 10].HandleMessage(msg.msg);
    for (const auto& m : out) {
      run.trimmed_replies += m.msg.trimmed ? 1 : 0;
    }
    push(std::move(out));
  };
  auto inject_trims = [&]() {
    const uint32_t safe =
        std::min(learners[0].highest_contiguous(), learners[1].highest_contiguous());
    for (uint32_t learner = 0; learner < 2; ++learner) {
      for (NodeId acceptor : group.acceptors) {
        wire.push_back(PaxosOut{acceptor, Trim(safe, learner)});
      }
    }
  };
  bool migrated = false;  // Routes leader_service traffic (switch rule).
  auto deliver_step = [&]() {
    if (rng.Bernoulli(0.05)) {
      inject_trims();
    }
    const size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(wire.size()) - 1));
    PaxosOut msg = wire[pick];
    wire.erase(wire.begin() + static_cast<long>(pick));
    if (rng.Bernoulli(0.2)) {
      return;  // Lost.
    }
    if (rng.Bernoulli(0.1)) {
      wire.push_back(msg);  // Duplicated.
    }
    if (msg.dst == group.leader_service) {
      push((migrated ? leader_b : leader_a).HandleMessage(msg.msg));
    } else if (msg.dst >= 10 && msg.dst <= 12) {
      to_acceptor(msg);
    } else if (msg.dst == 30 || msg.dst == 31) {
      const int li = msg.dst == 30 ? 0 : 1;
      if (msg.msg.type == PaxosMsgType::kPhase2b) {
        const uint64_t before = learners[li].delivered_count();
        push(learners[li].HandleMessage(msg.msg, 0));
        if (learners[li].delivered_count() > before) {
          auto [it, inserted] =
              decided[li].try_emplace(msg.msg.instance, msg.msg.value);
          if (!inserted) {
            EXPECT_EQ(it->second, msg.msg.value)
                << "learner " << li << " instance " << msg.msg.instance;
          }
        }
      }
    }
  };

  // Epoch 1: the software leader serves.
  for (int i = 0; i < 30; ++i) {
    push(leader_a.HandleMessage(ClientRequest(1000 + i)));
  }
  int steps = 0;
  while (!wire.empty() && steps++ < 2000 && rng.Bernoulli(0.97)) {
    deliver_step();  // Chaos delivery, possibly leaving messages in flight.
  }
  // Migration: quiesce the old leader (it is deactivated and its in-flight
  // 2a messages have reached the acceptors or been lost — the acceptors'
  // ingress drains before the new leader probes), repoint, then probe.
  std::vector<PaxosOut> residue;
  // Drain a snapshot: HandleMessage outputs are pushed back onto `wire`,
  // which must not be the vector being iterated (iterator invalidation).
  std::vector<PaxosOut> in_flight;
  in_flight.swap(wire);
  for (auto& msg : in_flight) {
    if (msg.dst >= 10 && msg.dst <= 12 && !rng.Bernoulli(0.2)) {
      to_acceptor(msg);
    } else {
      residue.push_back(msg);
    }
  }
  // Keep non-acceptor traffic (votes to learners etc.) in flight.
  wire.insert(wire.end(), residue.begin(), residue.end());
  migrated = true;
  push(leader_b.StartSequenceLearning());

  // Epoch 2: the hardware leader serves new values (and retried ones).
  for (int i = 0; i < 30; ++i) {
    push(leader_b.HandleMessage(ClientRequest(2000 + i)));
  }
  steps = 0;
  while (!wire.empty() && steps++ < 20000) {
    deliver_step();
  }

  // Cross-learner agreement on instances both decided.
  for (const auto& [inst, value] : decided[0]) {
    auto it = decided[1].find(inst);
    if (it != decided[1].end() && value != kPaxosNoop && it->second != kPaxosNoop) {
      EXPECT_EQ(value, it->second) << "instance " << inst;
    }
  }
  run.decided = decided[0].size() + decided[1].size();
  return run;
}

class PaxosSafetyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PaxosSafetyTest, NoConflictingDeliveries) {
  // Someone made progress in both epochs (loss rates permitting).
  EXPECT_GT(RunSafetyScenario(GetParam()).decided, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosSafetyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST(PaxosSafetyTrimTest, SomeSeedDrivesTrimmedReply) {
  uint64_t trimmed = 0;
  for (uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
    trimmed += RunSafetyScenario(seed).trimmed_replies;
  }
  EXPECT_GT(trimmed, 0u);
}

TEST(LeaderTest, SequenceProbeGatesProposals) {
  LeaderState leader(ThreeAcceptorGroup(), 1);
  leader.HandleMessage(ClientRequest(1));  // Old life: instance 1 used.
  leader.Reset(2);
  const auto probe = leader.StartSequenceLearning();
  ASSERT_EQ(probe.size(), 3u);
  EXPECT_EQ(probe[0].msg.type, PaxosMsgType::kPhase1a);
  EXPECT_TRUE(leader.awaiting_sequence());
  // Client requests are buffered, not proposed.
  EXPECT_TRUE(leader.HandleMessage(ClientRequest(55)).empty());
  // First promise: not yet a quorum.
  PaxosMessage p0;
  p0.type = PaxosMsgType::kPhase1b;
  p0.instance = 1;
  p0.round = 2;
  p0.sender_id = 0;
  p0.last_voted_instance = 40;
  EXPECT_TRUE(leader.awaiting_sequence());
  leader.HandleMessage(p0);
  EXPECT_TRUE(leader.awaiting_sequence());
  // Second promise completes the quorum: buffered request proposed at the
  // learned sequence (41), not at a stale instance.
  PaxosMessage p1 = p0;
  p1.sender_id = 1;
  p1.last_voted_instance = 38;
  const auto out = leader.HandleMessage(p1);
  EXPECT_FALSE(leader.awaiting_sequence());
  bool proposed_55 = false;
  for (const auto& m : out) {
    if (m.msg.type == PaxosMsgType::kPhase2a && m.msg.value == 55) {
      proposed_55 = true;
      EXPECT_EQ(m.msg.instance, 41u);
    }
  }
  EXPECT_TRUE(proposed_55);
}

TEST(PaxosMsgTest, PacketBuilderAndNames) {
  PaxosMessage msg;
  msg.type = PaxosMsgType::kPhase2a;
  msg.value = 77;
  const Packet pkt = MakePaxosPacket(1, 2, msg, 555);
  EXPECT_EQ(pkt.proto, AppProto::kPaxos);
  EXPECT_EQ(pkt.size_bytes, kPaxosWireBytes);
  EXPECT_EQ(pkt.created_at, 555);
  EXPECT_EQ(PayloadAs<PaxosMessage>(pkt).value, 77u);
  EXPECT_STREQ(PaxosMsgTypeName(PaxosMsgType::kFillRequest), "fill_request");
}

}  // namespace
}  // namespace incod
