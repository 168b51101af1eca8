// Soak run: long-horizon invariants that short unit runs cannot show.
//
// A Paxos group (P4xos leader on the NetFPGA, three acceptors, one learner)
// serves a Poisson client at 200 kreq/s for 2 simulated seconds (400k
// decided instances, ~97 trim strides). Every 100 ms of simulated time the
// logs must sit on a plateau — each acceptor holds at most one trim stride
// plus the instances in flight, the learner only the instances in flight —
// and every host's counters must reconcile. Registered under the ctest
// label `soak` and run with the rest of the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/paxos/roles.h"
#include "src/scenarios/paxos_testbed.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

constexpr double kRequestsPerSecond = 200000;
constexpr SimDuration kHorizon = Seconds(2);
constexpr SimDuration kSamplePeriod = Milliseconds(100);
// Instances decided but not yet covered by a trim announcement, plus those
// still being voted on: far above what the client keeps outstanding at this
// rate, far below a stride.
constexpr size_t kInFlight = 1024;

TEST(PaxosSoakTest, LogsPlateauAndCountersReconcile) {
  Simulation sim(1);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kP4xosFpga;
  options.client.requests_per_second = kRequestsPerSecond;
  options.client.poisson_arrivals = true;
  PaxosTestbed testbed(sim, options);
  std::vector<const AcceptorState*> acceptors;
  for (int i = 0; i < 3; ++i) {
    acceptors.push_back(&testbed.software_acceptor(i)->state());
  }
  const LearnerState& learner = testbed.learner()->state();
  std::vector<Server*> servers;
  for (size_t i = 0; i < testbed.scenario().member_count(); ++i) {
    if (Server* server = testbed.scenario().member(i).server) {
      servers.push_back(server);
    }
  }
  ASSERT_GE(servers.size(), 4u);  // At least the acceptor and learner hosts.

  auto check_servers = [&](bool quiescent) {
    for (const Server* server : servers) {
      const uint64_t settled = server->requests_completed() + server->requests_dropped();
      if (quiescent) {
        EXPECT_EQ(server->requests_received(), settled) << server->config().name;
      } else {
        // The difference is what is queued or in service right now.
        EXPECT_GE(server->requests_received(), settled) << server->config().name;
        EXPECT_LE(server->requests_received() - settled,
                  static_cast<uint64_t>(server->config().num_cores) *
                      (server->config().rx_queue_capacity + 1))
            << server->config().name;
      }
    }
  };

  testbed.client().StopAt(kHorizon);
  testbed.client().Start();
  size_t peak_acceptor = 0;
  for (SimTime t = kSamplePeriod; t <= kHorizon; t += kSamplePeriod) {
    sim.RunUntil(t);
    for (const AcceptorState* acceptor : acceptors) {
      EXPECT_LE(acceptor->stored_instances(), kPaxosTrimStride + kInFlight) << "t=" << t;
      EXPECT_LE(acceptor->ring_capacity(), 2 * kPaxosTrimStride) << "t=" << t;
      peak_acceptor = std::max(peak_acceptor, acceptor->stored_instances());
    }
    EXPECT_LE(learner.stored_instances(), kInFlight) << "t=" << t;
    check_servers(false);
  }
  // Drain: the client has stopped; in-flight requests finish.
  sim.RunUntil(kHorizon + Milliseconds(5));
  check_servers(true);

  const uint64_t decided = learner.highest_contiguous();
  EXPECT_GT(decided, 380000u);  // ~200k/s for 2 s.
  EXPECT_EQ(testbed.client().completed(), testbed.client().sent());
  for (const AcceptorState* acceptor : acceptors) {
    // Every learner announcement landed: the log is trimmed to the last one.
    EXPECT_LE(acceptor->trim_watermark(), decided);
    EXPECT_GT(acceptor->trim_watermark() + kPaxosTrimStride, decided);
  }
  EXPECT_GT(peak_acceptor, kPaxosTrimStride / 2);  // The stride is what is held.
}

}  // namespace
}  // namespace incod
