// Conventional (fixed-function) NIC power and datapath model.
//
// The software-only testbeds use an Intel X520 or Mellanox ConnectX-3 NIC
// (§4.1). They contribute a small constant draw to server wall power and a
// pass-through datapath. The Mellanox NIC sustains higher packet rates; the
// Intel NIC bottlenecks KVS around 300 Kpps yet is slightly more power
// efficient (§4.2) — modeled via the rate cap and watts below.
//
// Beyond the pass-through, the NIC optionally models the mechanistic host
// datapath (HostNicSpec): per-queue rx descriptor rings selected by an RSS
// flow hash, interrupt moderation toward a kernel-stack host (packet-count
// trigger + coalescing timer, the first packet of each batch carrying
// Packet::irq so the server charges the handler cost), immediate poll-style
// draining for DPDK hosts, and DMA doorbell batching on tx. All of it runs
// on ordinary simulation events, so sharded runs stay event-identical
// across engine modes, and it is off by default — existing scenarios keep
// their event streams bit-identical.
#ifndef INCOD_SRC_DEVICE_CONVENTIONAL_NIC_H_
#define INCOD_SRC_DEVICE_CONVENTIONAL_NIC_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "src/device/nic_ports.h"
#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/power/power_source.h"
#include "src/sim/simulation.h"
#include "src/stats/counters.h"

namespace incod {

// Opt-in mechanistic host datapath. With `enabled` false the NIC is the
// historical pass-through (per-packet latency, optional max_pps pacing).
struct HostNicSpec {
  bool enabled = false;
  // RSS: FlowHash(packet) % num_queues selects the rx descriptor ring.
  int num_queues = 4;
  // Descriptors per rx ring. A packet arriving at a full ring is dropped at
  // the NIC (ring_drops(), distinct from the rate-cap drop counter) — the
  // real failure mode of small rings under aggressive coalescing.
  size_t ring_depth = 256;
  // Interrupt moderation (kernel-stack hosts): an rx interrupt is raised
  // when a ring holds coalesce_packets descriptors, or coalesce_timer after
  // the first undelivered packet, whichever comes first.
  size_t coalesce_packets = 8;
  SimDuration coalesce_timer = Microseconds(10);
  // Tx doorbell batching: descriptors posted by the host accumulate until
  // tx_doorbell_batch are pending (or the flush timer expires), then one
  // doorbell ring DMAs the whole batch to the wire.
  size_t tx_doorbell_batch = 8;
  SimDuration doorbell_flush_timer = Microseconds(2);
  // True for an interrupt-driven (kKernel) host: batches carry Packet::irq
  // on their first packet. False models a DPDK host polling the rings: the
  // ring drains every poll with no interrupt cost — how the two stacks
  // mechanistically diverge. Scenario builders set this from the host's
  // NetStackType.
  bool host_interrupts = true;
};

struct ConventionalNicConfig {
  std::string name = "nic";
  NodeId host_node = 1;
  double watts = 4.0;              // Mellanox MCX311A-class draw.
  double max_pps = 0;              // 0: line-rate (no NIC bottleneck).
  SimDuration latency = Microseconds(1);  // PCIe + driver path.
  HostNicSpec hostnic;             // Mechanistic datapath (off by default).
};

// Presets from §4.1/§4.2.
ConventionalNicConfig MellanoxConnectX3Config(NodeId host_node);
ConventionalNicConfig IntelX520Config(NodeId host_node);

// Links and the PFC pause relay come from NicPorts.
class ConventionalNic : public NicPorts, public PowerSource {
 public:
  ConventionalNic(Simulation& sim, ConventionalNicConfig config);

  void Receive(Packet packet) override;
  std::string SinkName() const override { return config_.name; }

  double PowerWatts() const override { return config_.watts; }
  std::string PowerName() const override { return config_.name; }

  // Packets shed by the max_pps rate cap (on-NIC buffer overrun).
  uint64_t dropped() const { return dropped_.value(); }

  // --- Mechanistic datapath introspection (hostnic.enabled) ---
  // RSS ring index for a packet (valid whenever hostnic.enabled).
  size_t RssQueue(const Packet& packet) const;
  uint64_t ring_drops() const { return ring_drops_.value(); }
  uint64_t interrupts_raised() const { return interrupts_raised_.value(); }
  uint64_t doorbells_rung() const { return doorbells_rung_.value(); }
  size_t rx_ring_occupancy(size_t queue) const { return rx_rings_.at(queue).ring.size(); }
  size_t tx_pending() const { return tx_batch_.size(); }

 private:
  struct RxRing {
    std::deque<Packet> ring;
    // Drain-event validity: every scheduled drain captures the generation
    // at scheduling time and no-ops when stale (e.g. a coalescing timer
    // that lost to the packet-count trigger). Firing-and-ignoring keeps
    // the event stream identical across engine modes with no cancels.
    uint64_t drain_gen = 0;
    bool drain_pending = false;
  };

  // max_pps pacing: books the packet-rate engine's next slot and returns
  // when it frees, or nullopt (counted drop) when the buffer overruns.
  std::optional<SimTime> PaceAtRateCap();
  // Pass-through (hostnic disabled) forward with optional max_pps pacing.
  void ForwardLegacy(Link* out, Packet packet);
  // Mechanistic rx: RSS ring placement + moderation trigger.
  void ReceiveIntoRing(Packet packet);
  // Pops every descriptor of `queue` and delivers the batch to the host.
  void DrainRxRing(size_t queue);
  // Mechanistic tx: doorbell batch placement + flush trigger.
  void EnqueueTx(Packet packet);
  void FlushTx();

  Simulation& sim_;
  ConventionalNicConfig config_;
  SimTime busy_until_ = 0;
  Counter dropped_;
  // Mechanistic datapath state.
  std::vector<RxRing> rx_rings_;
  std::deque<Packet> tx_batch_;
  uint64_t tx_flush_gen_ = 0;
  bool tx_flush_pending_ = false;
  Counter ring_drops_;
  Counter interrupts_raised_;
  Counter doorbells_rung_;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_CONVENTIONAL_NIC_H_
