// The offload NIC: one bump-in-the-wire datapath for the FPGA NIC (§5) and
// the SmartNICs the paper surveys (§10).
//
// The board is the host's NIC at all times. A packet classifier steers the
// installed apps' traffic into an on-board engine and passes everything
// else to the host across PCIe (LaKe's classifier, and the one the paper
// adds to Emu DNS, §3.3). Receive() runs one skeleton, in this order:
//   1. reprogramming: every packet, either direction, is dropped — "a
//      momentary traffic halt" (§9.2);
//   2. host egress: active apps observe their packets on the way out (LaKe
//      fills its caches from host replies), then the packet is transmitted;
//   3. classifier claim: the first installed app whose Matches() accepts
//      the packet claims it, and the claim is counted toward the ingress
//      rate whether or not the app is active (the §9.1 controller signal);
//   4. a claimed packet steered into a dead engine is dropped and counted,
//      never punted: the host is authoritative again only after recovery
//      re-places the app;
//   5. admit into the engine; unclaimed or parked traffic goes to the host.
//
// The boards differ only in the engine's service model and their power
// envelopes. The service model is data (OffloadEngineModel), not code: N
// servers, a per-app service interval, an input-queue bound and a
// completion latency, plus an optional classifier hop ahead of the engine.
// The FPGA NIC is that model with its app's FpgaPipelineSpec workers and a
// 300 ns classifier hop; a SmartNIC is one server, no classifier hop, a
// 2 µs completion latency and a 1024-packet queue.
#ifndef INCOD_SRC_DEVICE_OFFLOAD_NIC_H_
#define INCOD_SRC_DEVICE_OFFLOAD_NIC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/device/nic_ports.h"
#include "src/device/offload_target.h"
#include "src/net/packet.h"
#include "src/power/power_source.h"
#include "src/sim/simulation.h"
#include "src/stats/counters.h"
#include "src/stats/timeseries.h"

namespace incod {

// Trailing window behind the processed and app-ingress rates.
constexpr SimDuration kOffloadRateWindow = Milliseconds(100);

// The engine's service model.
struct OffloadEngineModel {
  // Parallel servers; the input arbiter picks the one that frees up first.
  int servers = 1;
  // Classifier-to-engine latency, a scheduled event of its own (0: none).
  SimDuration classifier_hop = 0;
  // Added after service to every completion.
  SimDuration completion_latency = 0;
  // Backlog bound in service intervals of waiting; overflow drops (UDP).
  size_t queue_capacity = 0;
  // Packets/second the engine sustains with no app slower than it.
  double peak_pps = 0;
};

class OffloadNic : public NicPorts,
                   public PowerSource,
                   public OffloadTarget,
                   public AppContext {
 public:
  // --- AppContext (the narrow surface installed apps talk through) ---
  Simulation& sim() override { return sim_; }
  PlacementKind placement() const override { return placement_; }
  NodeId self_node() const override { return device_node_; }
  void Reply(Packet packet) override { TransmitToNetwork(std::move(packet)); }
  void Punt(Packet packet) override { DeliverToHost(std::move(packet)); }

  // --- Data path ---
  void Receive(Packet packet) override;
  std::string SinkName() const override { return name_; }
  // Sends a packet out the network port (apps' replies).
  void TransmitToNetwork(Packet packet);
  // Punts a packet to the host across PCIe/DMA; counted as a drop when the
  // board has no host (standalone).
  void DeliverToHost(Packet packet);

  // Installed apps (not owned), in install order.
  size_t app_count() const { return apps_.size(); }
  App* app(size_t index = 0) const {
    return index < apps_.size() ? apps_[index].app : nullptr;
  }

  // --- OffloadTarget: classifier and park-state surface ---
  void SetAppActive(bool active) override;
  bool app_active() const override { return app_active_; }
  void SetClockGating(bool enabled) override;
  bool clock_gating() const override { return clock_gating_; }
  // Entering reset loses the apps' on-board state (LaKe re-warms, §9.2).
  void SetMemoryReset(bool enabled) override;
  bool memory_reset() const override { return memory_reset_; }
  // Ignored where the silicon cannot be reconfigured (see Traits()).
  void SetReprogramming(bool reprogramming) override;
  bool reprogramming() const override { return reprogramming_; }

  // --- OffloadTarget: rate, power and fault surface ---
  double AppIngressRatePerSecond() const override;
  uint64_t app_ingress_packets() const override { return app_ingress_.value(); }
  double ProcessedRatePerSecond() const override;
  double OffloadPowerWatts() const override { return PowerWatts(); }
  // The engine's peak, capped by the slowest installed app.
  double OffloadCapacityPps() const override;
  // Claimed packets and engine completions discarded because a fault killed
  // the engine. The board keeps forwarding: only app work dies.
  uint64_t dead_dropped() const override { return dead_dropped_.value(); }

  std::string PowerName() const override { return name_; }
  // Engine utilization in [0,1] over the trailing rate window.
  double Utilization() const;

  // --- Counters ---
  uint64_t processed_in_hardware() const { return processed_.value(); }
  uint64_t delivered_to_host() const { return to_host_.value(); }
  // Reprogramming halts, engine queue overflows and host-less punts.
  uint64_t dropped() const { return dropped_.value(); }

 protected:
  OffloadNic(Simulation& sim, std::string name, PlacementKind placement,
             NodeId host_node, NodeId device_node);

  // Throws std::invalid_argument unless `app` is non-null and supports this
  // board's placement.
  void CheckInstallable(const App* app) const;
  // Installs a validated app: `service` is its per-packet interval on one
  // engine server, `capacity_pps` its sustained ceiling. A late install onto
  // a live engine activates the app like its peers.
  void AddApp(App* app, SimDuration service, double capacity_pps);
  void SetEngine(const OffloadEngineModel& engine);
  // Tells every installed app its on-board state is gone.
  void ResetAppMemories();
  // Called after activation, clock gating or memory reset changed.
  virtual void OnParkStateChanged() {}

  // Power-gated engine (reprogram-style park): claimed traffic goes to the
  // host until the next activation restores the engine.
  bool engine_power_gated_ = false;

 private:
  struct HostedApp {
    App* app = nullptr;
    SimDuration service = 0;
    double capacity_pps = 0;
  };

  void AdmitToEngine(size_t app_index, Packet packet);

  Simulation& sim_;
  std::string name_;
  PlacementKind placement_;
  NodeId host_node_;
  NodeId device_node_;
  OffloadEngineModel engine_;
  std::vector<SimTime> server_busy_until_;
  std::vector<HostedApp> apps_;
  bool app_active_ = false;
  bool clock_gating_ = false;
  bool memory_reset_ = false;
  bool reprogramming_ = false;
  mutable SlidingWindowRate processed_rate_{kOffloadRateWindow};
  mutable SlidingWindowRate app_ingress_rate_{kOffloadRateWindow};
  Counter app_ingress_;
  Counter processed_;
  Counter to_host_;
  Counter dropped_;
  Counter dead_dropped_;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_OFFLOAD_NIC_H_
