#include "src/device/conventional_nic.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace incod {

namespace {
// Packets the max_pps rate cap may hold in its small on-NIC buffer before
// it drops.
constexpr int kRateCapBufferPackets = 128;
}  // namespace

ConventionalNicConfig MellanoxConnectX3Config(NodeId host_node) {
  ConventionalNicConfig config;
  config.name = "mellanox-cx3";
  config.host_node = host_node;
  config.watts = 4.0;
  config.max_pps = 0;  // Not the bottleneck for memcached (§4.2).
  return config;
}

ConventionalNicConfig IntelX520Config(NodeId host_node) {
  ConventionalNicConfig config;
  config.name = "intel-x520";
  config.host_node = host_node;
  // §4.2: with the X520 "the host became more power efficient; the crossing
  // point moved to over 300Kpps. However, the maximum throughput the server
  // achieves using the Intel NIC is lower."
  config.watts = 2.2;
  config.max_pps = 600000.0;
  return config;
}

ConventionalNic::ConventionalNic(Simulation& sim, ConventionalNicConfig config)
    : sim_(sim), config_(std::move(config)) {
  if (config_.hostnic.enabled) {
    config_.hostnic.num_queues = std::max(1, config_.hostnic.num_queues);
    config_.hostnic.ring_depth = std::max<size_t>(1, config_.hostnic.ring_depth);
    rx_rings_.resize(static_cast<size_t>(config_.hostnic.num_queues));
  }
}

size_t ConventionalNic::RssQueue(const Packet& packet) const {
  return static_cast<size_t>(FlowHash(packet) %
                             static_cast<uint64_t>(config_.hostnic.num_queues));
}

void ConventionalNic::Receive(Packet packet) {
  const bool from_host = packet.src == config_.host_node;
  Link* out = from_host ? net_link_ : host_link_;
  if (out == nullptr) {
    throw std::logic_error("ConventionalNic: missing link on " + config_.name);
  }
  if (!config_.hostnic.enabled) {
    ForwardLegacy(out, std::move(packet));
    return;
  }
  if (from_host) {
    EnqueueTx(std::move(packet));
    return;
  }
  if (config_.max_pps > 0) {
    // The packet-rate ceiling sits in front of the rings (the classify/DMA
    // engine); paced packets land in their RSS ring when the engine frees.
    const std::optional<SimTime> freed = PaceAtRateCap();
    if (!freed.has_value()) {
      return;
    }
    sim_.ScheduleAt(*freed, [this, pkt = std::move(packet)]() mutable {
      ReceiveIntoRing(std::move(pkt));
    });
    return;
  }
  ReceiveIntoRing(std::move(packet));
}

std::optional<SimTime> ConventionalNic::PaceAtRateCap() {
  const SimDuration per_packet = SecondsF(1.0 / config_.max_pps);
  const SimTime now = sim_.Now();
  const SimTime start = std::max(now, busy_until_);
  if (start - now > kRateCapBufferPackets * per_packet) {
    dropped_.Increment();
    return std::nullopt;
  }
  busy_until_ = start + per_packet;
  return busy_until_;
}

void ConventionalNic::ForwardLegacy(Link* out, Packet packet) {
  if (config_.max_pps > 0) {
    const std::optional<SimTime> freed = PaceAtRateCap();
    if (!freed.has_value()) {
      return;
    }
    sim_.ScheduleAt(*freed + config_.latency,
                    [this, out, pkt = std::move(packet)]() mutable {
                      out->Send(this, std::move(pkt));
                    });
    return;
  }
  sim_.Schedule(config_.latency, [this, out, pkt = std::move(packet)]() mutable {
    out->Send(this, std::move(pkt));
  });
}

void ConventionalNic::ReceiveIntoRing(Packet packet) {
  const size_t queue = RssQueue(packet);
  RxRing& ring = rx_rings_[queue];
  if (ring.ring.size() >= config_.hostnic.ring_depth) {
    // No free descriptor: the wire does not wait. Distinct from the
    // rate-cap drop — this one is ring pressure, not engine throughput.
    ring_drops_.Increment();
    return;
  }
  ring.ring.push_back(std::move(packet));
  if (!config_.hostnic.host_interrupts) {
    // DPDK host: the poll loop picks the batch up one PCIe/driver latency
    // from now; everything arriving inside the window rides the same poll.
    if (!ring.drain_pending) {
      ring.drain_pending = true;
      const uint64_t gen = ++ring.drain_gen;
      sim_.Schedule(config_.latency, [this, queue, gen] {
        if (rx_rings_[queue].drain_gen == gen) {
          DrainRxRing(queue);
        }
      });
    }
    return;
  }
  // Interrupt moderation: arm the coalescing timer on the first undelivered
  // packet; the packet-count trigger preempts it by bumping the generation
  // (the stale timer event still fires and no-ops, in every engine mode).
  if (!ring.drain_pending) {
    ring.drain_pending = true;
    const uint64_t gen = ++ring.drain_gen;
    sim_.Schedule(config_.hostnic.coalesce_timer, [this, queue, gen] {
      if (rx_rings_[queue].drain_gen == gen) {
        DrainRxRing(queue);
      }
    });
  }
  if (ring.ring.size() == config_.hostnic.coalesce_packets) {
    const uint64_t gen = ++ring.drain_gen;
    sim_.Schedule(config_.latency, [this, queue, gen] {
      if (rx_rings_[queue].drain_gen == gen) {
        DrainRxRing(queue);
      }
    });
  }
}

void ConventionalNic::DrainRxRing(size_t queue) {
  RxRing& ring = rx_rings_[queue];
  ring.drain_pending = false;
  if (ring.ring.empty()) {
    return;
  }
  if (config_.hostnic.host_interrupts) {
    interrupts_raised_.Increment();
    // The first packet of the batch carries the irq marker; the server
    // charges its per-interrupt CPU cost into that request.
    ring.ring.front().irq = true;
  }
  while (!ring.ring.empty()) {
    Packet pkt = std::move(ring.ring.front());
    ring.ring.pop_front();
    host_link_->Send(this, std::move(pkt));
  }
}

void ConventionalNic::EnqueueTx(Packet packet) {
  tx_batch_.push_back(std::move(packet));
  if (!tx_flush_pending_) {
    tx_flush_pending_ = true;
    const uint64_t gen = ++tx_flush_gen_;
    sim_.Schedule(config_.hostnic.doorbell_flush_timer, [this, gen] {
      if (tx_flush_gen_ == gen) {
        FlushTx();
      }
    });
  }
  if (tx_batch_.size() == config_.hostnic.tx_doorbell_batch) {
    const uint64_t gen = ++tx_flush_gen_;
    sim_.Schedule(config_.latency, [this, gen] {
      if (tx_flush_gen_ == gen) {
        FlushTx();
      }
    });
  }
}

void ConventionalNic::FlushTx() {
  tx_flush_pending_ = false;
  if (tx_batch_.empty()) {
    return;
  }
  doorbells_rung_.Increment();
  while (!tx_batch_.empty()) {
    Packet pkt = std::move(tx_batch_.front());
    tx_batch_.pop_front();
    net_link_->Send(this, std::move(pkt));
  }
}

}  // namespace incod
