#include "src/device/offload_nic.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace incod {

OffloadNic::OffloadNic(Simulation& sim, std::string name, PlacementKind placement,
                       NodeId host_node, NodeId device_node)
    : sim_(sim),
      name_(std::move(name)),
      placement_(placement),
      host_node_(host_node),
      device_node_(device_node) {}

void OffloadNic::CheckInstallable(const App* app) const {
  if (app == nullptr) {
    throw std::invalid_argument(name_ + ": cannot install a null app");
  }
  if (!app->SupportsPlacement(placement_)) {
    throw std::invalid_argument(name_ + ": " + app->AppName() + " does not support the " +
                                PlacementKindName(placement_) + " placement");
  }
}

void OffloadNic::AddApp(App* app, SimDuration service, double capacity_pps) {
  app->BindContext(this);
  apps_.push_back(HostedApp{app, service, capacity_pps});
  if (app_active_) {
    app->OnActivate();
  }
}

void OffloadNic::SetEngine(const OffloadEngineModel& engine) {
  engine_ = engine;
  server_busy_until_.assign(static_cast<size_t>(engine_.servers), 0);
}

void OffloadNic::ResetAppMemories() {
  for (HostedApp& hosted : apps_) {
    hosted.app->OnMemoryReset();
  }
}

void OffloadNic::SetAppActive(bool active) {
  const bool was_active = app_active_;
  app_active_ = active;
  if (active) {
    engine_power_gated_ = false;  // Waking restores the engine.
  }
  if (was_active == active) {
    return;
  }
  for (HostedApp& hosted : apps_) {
    if (active) {
      hosted.app->OnActivate();
    } else {
      hosted.app->OnDeactivate();
    }
  }
  OnParkStateChanged();
}

void OffloadNic::SetClockGating(bool enabled) {
  clock_gating_ = enabled;
  OnParkStateChanged();
}

void OffloadNic::SetMemoryReset(bool enabled) {
  const bool entering_reset = enabled && !memory_reset_;
  memory_reset_ = enabled;
  OnParkStateChanged();
  if (entering_reset) {
    ResetAppMemories();
  }
}

void OffloadNic::SetReprogramming(bool reprogramming) {
  if (reprogramming && !Traits().supports_reprogramming) {
    return;  // Fixed-function engine: nothing to reprogram.
  }
  reprogramming_ = reprogramming;
}

void OffloadNic::Receive(Packet packet) {
  if (reprogramming_) {
    dropped_.Increment();
    return;
  }
  if (packet.src == host_node_) {
    if (app_active_ && !engine_dead()) {
      for (HostedApp& hosted : apps_) {
        if (hosted.app->Matches(packet)) {
          hosted.app->OnHostEgress(*this, packet);
        }
      }
    }
    TransmitToNetwork(std::move(packet));
    return;
  }
  size_t claimed = 0;
  while (claimed < apps_.size() && !apps_[claimed].app->Matches(packet)) {
    ++claimed;
  }
  if (claimed < apps_.size()) {
    app_ingress_.Increment();
    app_ingress_rate_.RecordEvent(sim_.Now());
    if (app_active_ && !engine_power_gated_) {
      if (engine_dead()) {
        dead_dropped_.Increment();
        return;
      }
      if (engine_.classifier_hop > 0) {
        auto admit = [this, claimed, pkt = std::move(packet)]() mutable {
          AdmitToEngine(claimed, std::move(pkt));
        };
        static_assert(sizeof(admit) <= InlineEvent::kInlineCapacity,
                      "classifier hops must stay inline");
        sim_.Schedule(engine_.classifier_hop, std::move(admit));
      } else {
        AdmitToEngine(claimed, std::move(packet));
      }
      return;
    }
  }
  DeliverToHost(std::move(packet));
}

void OffloadNic::AdmitToEngine(size_t app_index, Packet packet) {
  if (engine_dead()) {  // Died while the packet crossed the classifier hop.
    dead_dropped_.Increment();
    return;
  }
  const HostedApp& hosted = apps_[app_index];
  const SimTime now = sim_.Now();
  auto server = std::min_element(server_busy_until_.begin(), server_busy_until_.end());
  const SimTime start = std::max(now, *server);
  const double backlog = static_cast<double>(start - now) /
                         static_cast<double>(std::max<SimDuration>(hosted.service, 1));
  if (backlog > static_cast<double>(engine_.queue_capacity)) {
    dropped_.Increment();
    return;
  }
  *server = start + hosted.service;
  auto complete = [this, app = hosted.app, pkt = std::move(packet)]() mutable {
    if (engine_dead()) {
      // Killed while this packet sat in the engine: the scheduled completion
      // must not run app code against dead hardware.
      dead_dropped_.Increment();
      return;
    }
    processed_.Increment();
    processed_rate_.RecordEvent(sim_.Now());
    app->HandlePacket(*this, std::move(pkt));
  };
  static_assert(sizeof(complete) <= InlineEvent::kInlineCapacity,
                "engine completions must stay inline");
  sim_.ScheduleAt(start + hosted.service + engine_.completion_latency,
                  std::move(complete));
}

void OffloadNic::TransmitToNetwork(Packet packet) {
  if (net_link_ == nullptr) {
    throw std::logic_error(name_ + ": no network link");
  }
  net_link_->Send(this, std::move(packet));
}

void OffloadNic::DeliverToHost(Packet packet) {
  if (host_link_ == nullptr) {
    dropped_.Increment();
    return;
  }
  to_host_.Increment();
  host_link_->Send(this, std::move(packet));
}

double OffloadNic::AppIngressRatePerSecond() const {
  return app_ingress_rate_.RatePerSecond(sim_.Now());
}

double OffloadNic::ProcessedRatePerSecond() const {
  return processed_rate_.RatePerSecond(sim_.Now());
}

double OffloadNic::OffloadCapacityPps() const {
  double capacity = engine_.peak_pps;
  for (const HostedApp& hosted : apps_) {
    capacity = std::min(capacity, hosted.capacity_pps);
  }
  return capacity;
}

double OffloadNic::Utilization() const {
  const double capacity = OffloadCapacityPps();
  if (capacity <= 0) {
    return 0;
  }
  return std::min(1.0, ProcessedRatePerSecond() / capacity);
}

}  // namespace incod
