#include "src/paxos/software_roles.h"

#include <utility>

#include "src/paxos/paxos_msg.h"
#include "src/sim/simulation.h"

namespace incod {

PaxosSoftwareConfig LibpaxosConfig() {
  return PaxosSoftwareConfig{Nanoseconds(4100), 1};
}

PaxosSoftwareConfig DpdkPaxosConfig() {
  return PaxosSoftwareConfig{Nanoseconds(900), 1};
}

PaxosSoftwareApp::PaxosSoftwareApp(PaxosSoftwareConfig config) : config_(config) {}

SimDuration PaxosSoftwareApp::CpuTimePerRequest(const Packet& packet) const {
  (void)packet;
  return config_.cpu_time_per_message;
}

void PaxosSoftwareApp::HandlePacket(AppContext& ctx, Packet packet) {
  const PaxosMessage* msg_if = active_ ? PayloadIf<PaxosMessage>(packet) : nullptr;
  if (msg_if == nullptr) {
    return;
  }
  handled_.Increment();
  const PaxosMessage& msg = *msg_if;
  for (auto& out : Handle(msg)) {
    ctx.Reply(MakePaxosPacket(ctx.self_node(), out.dst, out.msg, ctx.sim().Now()));
  }
}

void PaxosSoftwareApp::TransmitOutbox(std::vector<PaxosOut> outbox) {
  AppContext* ctx = context();
  if (ctx == nullptr) {
    return;
  }
  for (auto& out : outbox) {
    ctx->Reply(MakePaxosPacket(ctx->self_node(), out.dst, out.msg, ctx->sim().Now()));
  }
}

SoftwareLeader::SoftwareLeader(PaxosGroupConfig group, uint16_t ballot,
                               PaxosSoftwareConfig config)
    : PaxosSoftwareApp(config),
      leader_service_(group.leader_service),
      state_(std::move(group), ballot) {}

std::vector<PaxosOut> SoftwareLeader::Handle(const PaxosMessage& msg) {
  return state_.HandleMessage(msg);
}

void SoftwareLeader::BeginSequenceLearning() {
  TransmitOutbox(state_.StartSequenceLearning(/*send_probe=*/false));
}

AppState SoftwareLeader::SnapshotState() const {
  PaxosAppState px;
  state_.SaveTo(px);
  return AppState{proto(), AppName(), px};
}

void SoftwareLeader::RestoreState(const AppState& state) {
  if (const PaxosAppState* px = std::get_if<PaxosAppState>(&state.data)) {
    state_.RestoreFrom(*px);
  }
}

SoftwareAcceptor::SoftwareAcceptor(PaxosGroupConfig group, uint32_t acceptor_id,
                                   PaxosSoftwareConfig config)
    : PaxosSoftwareApp(config), state_(std::move(group), acceptor_id) {}

std::vector<PaxosOut> SoftwareAcceptor::Handle(const PaxosMessage& msg) {
  return state_.HandleMessage(msg);
}

AppState SoftwareAcceptor::SnapshotState() const {
  PaxosAppState px;
  state_.SaveTo(px);
  return AppState{proto(), AppName(), std::move(px)};
}

void SoftwareAcceptor::RestoreState(const AppState& state) {
  if (const PaxosAppState* px = std::get_if<PaxosAppState>(&state.data)) {
    state_.RestoreFrom(*px);
  }
}

SoftwareLearner::SoftwareLearner(PaxosGroupConfig group, PaxosSoftwareConfig config,
                                 SimDuration gap_timeout)
    : PaxosSoftwareApp(config), state_(std::move(group)), gap_timeout_(gap_timeout) {}

std::vector<PaxosOut> SoftwareLearner::Handle(const PaxosMessage& msg) {
  return state_.HandleMessage(msg, context()->sim().Now());
}

void SoftwareLearner::StartGapTimer() {
  if (timer_started_ || context() == nullptr) {
    return;
  }
  timer_started_ = true;
  Simulation& sim = context()->sim();
  SchedulePeriodic(sim, gap_timeout_, gap_timeout_, [this, &sim] {
    TransmitOutbox(state_.CheckGaps(sim.Now(), gap_timeout_));
    return true;
  });
}

}  // namespace incod
