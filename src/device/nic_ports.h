// The two ports every NIC model has, and the PFC pause relay between them.
//
// A NIC is a bump in the wire: one link faces the network (client or ToR),
// the other crosses PCIe to its host. When the host link runs PFC and its
// backlog toward the host crosses a watermark — the host stopped draining —
// the NIC asserts pause out of its network port so the ToR holds its
// transmissions there. Network-side congestion is the switch's problem, not
// the NIC's. ConventionalNic and OffloadNic (FPGA NIC, SmartNIC) share this.
#ifndef INCOD_SRC_DEVICE_NIC_PORTS_H_
#define INCOD_SRC_DEVICE_NIC_PORTS_H_

#include <cstdint>

#include "src/net/flow_control.h"
#include "src/net/link.h"
#include "src/net/packet.h"

namespace incod {

class NicPorts : public PacketSink, public FlowListener {
 public:
  // Attach the network-side and host-side links (both must have this device
  // as one endpoint).
  void SetNetworkLink(Link* link) { net_link_ = link; }
  void SetHostLink(Link* link) {
    host_link_ = link;
    if (link != nullptr && link->config().flow.pfc) {
      link->SetFlowListener(this, this);
    }
  }

  // FlowListener: relays host-link pause flips out of the network port.
  void OnLinkCongestion(Link* link, bool congested) override {
    if (link != host_link_ || net_link_ == nullptr || !net_link_->config().flow.pfc) {
      return;
    }
    if (congested) {
      ++pause_propagations_;
    }
    net_link_->PauseUpstream(this, congested);
  }
  // Pauses relayed toward the network (resumes are not counted).
  uint64_t pause_propagations() const { return pause_propagations_; }

 protected:
  Link* net_link_ = nullptr;
  Link* host_link_ = nullptr;

 private:
  uint64_t pause_propagations_ = 0;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_NIC_PORTS_H_
