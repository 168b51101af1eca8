// Host server model.
//
// A Server executes bound host-placement Apps on a fixed set of cores using
// a per-thread FIFO run queue (UDP drop-tail on overflow), tracks core
// utilization over a sampling period, and reports wall power through a
// calibrated CpuPowerModel curve. The network stack is configurable between
// a kernel path and a DPDK-style busy-polling path, reproducing the paper's
// observation that "DPDK constantly polls", keeping power high at idle.
#ifndef INCOD_SRC_HOST_SERVER_H_
#define INCOD_SRC_HOST_SERVER_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/app/app.h"
#include "src/net/flow_control.h"
#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/power/cpu_power.h"
#include "src/sim/simulation.h"
#include "src/stats/counters.h"

namespace incod {

enum class NetStackType {
  kKernel,  // Interrupt-driven: higher per-packet cost, no idle burn.
  kDpdk,    // Busy polling: poll cores always at 100 %, low per-packet cost.
};

// How arriving requests pick a worker thread.
enum class HostDispatch {
  // Idealized least-loaded dispatch (shortest queue wins). No real NIC does
  // this; kept as the differential reference against kRssHash.
  kIdealLb,
  // RSS-style steering: FlowHash(packet) % threads, the same hash a
  // mechanistic conventional NIC uses for its rx queues, so a NIC queue
  // maps stably onto a worker. Hash collisions make load imbalance real.
  kRssHash,
};

struct ServerConfig {
  std::string name = "server";
  NodeId node = 1;
  int num_cores = 4;
  PiecewiseLinearCurve power_curve = I7SyntheticCurve();
  NetStackType stack = NetStackType::kKernel;
  SimDuration stack_rx_cost = Microseconds(1);    // Per-request rx cost (kKernel).
  // Per-request rx cost on the kDpdk stack: poll-mode drivers skip the
  // kernel's socket path, so the per-packet cost is ~5x smaller. Which of
  // the two costs applies follows `stack` (see StartService).
  SimDuration dpdk_stack_rx_cost = Nanoseconds(200);
  SimDuration stack_tx_cost = Nanoseconds(500);   // Added to each reply.
  int dpdk_poll_cores = 1;                        // Cores pinned to polling (kDpdk).
  size_t rx_queue_capacity = 1024;                // Per worker thread.
  HostDispatch dispatch = HostDispatch::kIdealLb;
  // CPU cost of taking one rx interrupt (kKernel only): charged into the
  // service time of the request carrying Packet::irq — the first packet of
  // each interrupt batch a mechanistic NIC (HostNicSpec) delivers. Bigger
  // coalescing batches amortize this over more requests.
  SimDuration interrupt_cpu_cost = Microseconds(1);
  SimDuration utilization_sample_period = Milliseconds(1);
  // Host ingress flow control: pause the uplink at rx-backlog watermarks,
  // CNP-notify senders of ECN-marked arrivals (requires a PFC uplink).
  HostFlowConfig flow;
};

class Server : public PacketSink, public PowerSource, public AppContext {
 public:
  Server(Simulation& sim, ServerConfig config);

  // Binds an application (not owned). Any App supporting the host placement
  // works; it replies through its AppContext (this server). Several apps
  // may share a protocol if they declare distinct service addresses in
  // their host profile.
  void BindApp(App* app);
  // First app bound for the protocol (nullptr if none).
  App* AppFor(AppProto proto) const;

  // --- AppContext (the narrow surface bound apps talk through) ---
  Simulation& sim() override { return sim_; }
  PlacementKind placement() const override { return PlacementKind::kHost; }
  NodeId self_node() const override { return config_.node; }
  // Replies leave via the uplink (stamps src with the host node).
  void Reply(Packet packet) override { Transmit(std::move(packet)); }
  // A host has no placement below it: punted packets are dropped by the OS.
  void Punt(Packet packet) override;

  // Network attachment: replies and originated packets leave via this link.
  void SetUplink(Link* link) { uplink_ = link; }
  Link* uplink() const { return uplink_; }

  // PacketSink: dispatches requests to the bound app's worker threads.
  void Receive(Packet packet) override;
  std::string SinkName() const override { return config_.name; }

  // Sends a packet out the uplink (stamps src).
  void Transmit(Packet packet);

  // Additional synthetic utilization (e.g. a co-running workload). Added to
  // measured app utilization, clamped to the core count.
  void SetBackgroundUtilization(double cores_busy);
  double background_utilization() const { return background_utilization_; }

  // Total core utilization (includes DPDK poll cores and background load),
  // averaged over at least the last sample period.
  double TotalUtilization() const;

  // Fraction [0,1] of the bound apps' worker threads that are busy (averaged
  // with the sampled utilization); this is what the host on-demand
  // controller reads as "CPU usage of the app".
  double AppCpuUsage(AppProto proto) const;

  // Per-app drop counter support: total dropped across all apps is exposed
  // via requests_dropped().

  // PowerSource: whole-server wall power from the calibrated curve.
  double PowerWatts() const override;
  std::string PowerName() const override { return config_.name; }

  // RAPL-visible package power: the dynamic part of the wall power plus a
  // small package idle floor (the wall curve includes PSU/fans/etc. which
  // RAPL does not see).
  double RaplPackageWatts() const;

  const ServerConfig& config() const { return config_; }
  NodeId node() const { return config_.node; }
  uint64_t requests_completed() const { return completed_.value(); }
  // Packets handed to Receive() (plus OS-level punts), before any drop.
  uint64_t requests_received() const { return received_.value(); }
  // Split drop accounting (mirrors the link-side dropped_overflow /
  // paused_deferred split): no bound app for the packet vs a full worker rx
  // queue. requests_dropped() stays the total, and
  //   requests_received() == requests_completed() + requests_dropped()
  //                          + still-queued + in-service
  // holds at any instant.
  uint64_t requests_dropped() const {
    return dropped_no_app_.value() + dropped_overflow_.value();
  }
  uint64_t dropped_no_app() const { return dropped_no_app_.value(); }
  uint64_t dropped_overflow() const { return dropped_overflow_.value(); }
  // Rx interrupts serviced (packets carrying Packet::irq on kKernel).
  uint64_t interrupts_serviced() const { return irqs_serviced_.value(); }

  // Host ingress flow-control state/counters (config().flow).
  bool ingress_paused() const { return ingress_paused_; }
  size_t rx_queued() const { return rx_queued_; }
  uint64_t pause_frames_sent() const { return pauses_sent_.value(); }
  uint64_t cnps_sent() const { return cnps_sent_.value(); }

 private:
  struct WorkerThread {
    std::deque<Packet> queue;
    bool busy = false;
    SimDuration cumulative_busy = 0;
  };
  struct BoundApp {
    App* app = nullptr;
    std::optional<NodeId> service_address;  // Cached from the host profile.
    std::vector<WorkerThread> threads;
  };

  BoundApp* FindBound(const Packet& packet);
  // Worker index for `packet` per config_.dispatch.
  size_t PickThread(const BoundApp& bound, const Packet& packet) const;
  void StartService(BoundApp& bound, size_t thread_index);
  // Pause/resume the uplink when the total rx backlog crosses the
  // watermarks (config_.flow.pfc).
  void MaybeUpdateIngressPause();
  // Rate-limited CNP back to the sender of an ECN-marked packet.
  void MaybeSendCnp(const Packet& packet);
  // Lazily re-samples utilization into the power model when at least one
  // sample period has elapsed. Called from every power/utilization read so
  // the simulation needs no perpetual sampling event (runs terminate).
  void MaybeSampleUtilization() const;

  Simulation& sim_;
  ServerConfig config_;
  mutable CpuPowerModel cpu_power_;
  Link* uplink_ = nullptr;
  std::vector<std::unique_ptr<BoundApp>> apps_;
  double background_utilization_ = 0;
  mutable SimDuration last_sample_busy_ = 0;
  mutable SimTime last_sample_at_ = 0;
  mutable double last_app_utilization_ = 0;
  Counter completed_;
  Counter received_;
  Counter dropped_no_app_;
  Counter dropped_overflow_;
  Counter irqs_serviced_;
  // Ingress flow control.
  bool ingress_paused_ = false;
  size_t rx_queued_ = 0;  // Total queued across all bound apps' threads.
  Counter pauses_sent_;
  Counter cnps_sent_;
  std::unordered_map<NodeId, SimTime> last_cnp_at_;
};

// A co-running CPU-bound workload (the paper uses ChainerMN as the second
// workload in Fig 6). Ramps background utilization on the server between
// start and stop times.
class BackgroundLoad {
 public:
  BackgroundLoad(Simulation& sim, Server& server, double cores_busy);

  void StartAt(SimTime at);
  void StopAt(SimTime at);
  bool active() const { return active_; }

 private:
  Simulation& sim_;
  Server& server_;
  double cores_busy_;
  bool active_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_HOST_SERVER_H_
