// On-demand offload controllers (§9.1).
//
// Two proof-of-concept controllers decide when to shift a workload between
// host and network, each with a mirrored parameter pair for hysteresis:
//
//  * NetworkController — runs "within the FPGA's classifier" (40 lines in
//    the paper's prototype). Signal: average application message rate over
//    a sliding averaging window. Pros: reacts early, offloads the host.
//    Cons: cannot see host power ("it only has access to the packet rate").
//
//  * HostController — runs on the host (204 lines, 0.3 % CPU in the paper,
//    "mainly for performing RAPL reads"). Signals: the application's CPU
//    usage and RAPL package power, inspected over time to avoid "harsh
//    decisions based on spikes and outliers"; shifting back additionally
//    requires rate feedback from the network device.
//
// Both controllers read their device signals through the OffloadTarget
// interface, so the same decision code runs against an FPGA NIC, a
// SmartNIC, or a switch ASIC program. They are deliberately the paper's
// naive threshold pair; the model-driven enhancement §9.1 anticipates —
// predict both placements' power with the §8 curves and shift on a saving
// margin — is RackOrchestrator (rack.h), which runs it for one app or many.
#ifndef INCOD_SRC_ONDEMAND_CONTROLLER_H_
#define INCOD_SRC_ONDEMAND_CONTROLLER_H_

#include <functional>
#include <vector>

#include "src/device/offload_target.h"
#include "src/host/server.h"
#include "src/ondemand/migrator.h"
#include "src/power/meter.h"
#include "src/sim/simulation.h"
#include "src/stats/timeseries.h"

namespace incod {

struct NetworkControllerConfig {
  // Shift host -> network when the average app message rate over
  // `up_window` is at least `up_rate_pps`.
  double up_rate_pps = 150000;
  SimDuration up_window = Seconds(1);
  // Mirrored pair for network -> host.
  double down_rate_pps = 50000;
  SimDuration down_window = Seconds(3);
  // Decision cadence.
  SimDuration check_period = Milliseconds(100);
  // Minimum dwell after any shift (additional back-and-forth damping).
  SimDuration min_dwell = Seconds(1);
};

class NetworkController {
 public:
  NetworkController(Simulation& sim, OffloadTarget& target, Migrator& migrator,
                    NetworkControllerConfig config = {});

  void Start();
  void Stop() { stopped_ = true; }

  const NetworkControllerConfig& config() const { return config_; }
  uint64_t decisions_evaluated() const { return decisions_; }

 private:
  void Tick();

  Simulation& sim_;
  OffloadTarget& target_;
  Migrator& migrator_;
  NetworkControllerConfig config_;
  SlidingWindowMean up_mean_;
  SlidingWindowMean down_mean_;
  uint64_t last_ingress_count_ = 0;
  SimTime last_tick_ = 0;
  SimTime last_shift_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  uint64_t decisions_ = 0;
};

// ---------------------------------------------------------------------------

struct HostControllerConfig {
  // Shift host -> network when RAPL power exceeds `up_power_watts` AND the
  // app's CPU usage exceeds `up_cpu_usage`, both sustained over `up_window`
  // (Fig 6 uses three seconds of sustained high load).
  double up_power_watts = 25.0;
  double up_cpu_usage = 0.5;
  SimDuration up_window = Seconds(3);
  // Shift network -> host when the device-reported processed rate falls
  // below `down_rate_pps` AND RAPL power is below `down_power_watts` over
  // `down_window` (rate feedback prevents inefficient bounce-back, §9.1).
  double down_rate_pps = 50000;
  double down_power_watts = 20.0;
  SimDuration down_window = Seconds(3);
  SimDuration check_period = Milliseconds(100);
  SimDuration min_dwell = Seconds(1);
};

class HostController {
 public:
  HostController(Simulation& sim, Server& server, AppProto app, RaplCounter& rapl,
                 OffloadTarget& target, Migrator& migrator,
                 HostControllerConfig config = {});

  void Start();
  void Stop() { stopped_ = true; }

  const HostControllerConfig& config() const { return config_; }
  // Most recent RAPL-derived power reading (for the Fig 6 timeline).
  double last_rapl_watts() const { return last_rapl_watts_; }

 private:
  void Tick();

  Simulation& sim_;
  Server& server_;
  AppProto app_;
  RaplCounter& rapl_;
  OffloadTarget& target_;
  Migrator& migrator_;
  HostControllerConfig config_;
  SlidingWindowMean power_mean_;
  SlidingWindowMean cpu_mean_;
  SlidingWindowMean rate_mean_;
  uint64_t last_energy_uj_ = 0;
  SimTime last_tick_ = 0;
  SimTime last_shift_ = 0;
  double last_rapl_watts_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_ONDEMAND_CONTROLLER_H_
