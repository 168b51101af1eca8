// Server/CPU power models.
//
// A CpuPowerModel maps total core utilization (0 .. num_cores, where 1.0 is
// one fully-busy core) to wall watts via an anchored piecewise-linear curve.
// Anchor points come from the paper's own measurements; see presets below
// and the calibration table in EXPERIMENTS.md. Curves are per (CPU platform,
// application) pair because the paper observes that "different applications
// have very different power profiles" (§9.1, citing Papadogiannaki et al.).
#ifndef INCOD_SRC_POWER_CPU_POWER_H_
#define INCOD_SRC_POWER_CPU_POWER_H_

#include <string>

#include "src/power/curve.h"
#include "src/power/power_source.h"

namespace incod {

class CpuPowerModel : public PowerSource {
 public:
  CpuPowerModel(std::string name, int num_cores, PiecewiseLinearCurve utilization_to_watts);

  // Sets the current total core utilization (clamped to [0, num_cores]).
  void SetUtilization(double total_core_utilization);
  double utilization() const { return utilization_; }

  int num_cores() const { return num_cores_; }

  double PowerWatts() const override;
  std::string PowerName() const override { return name_; }

  double IdleWatts() const { return curve_.Evaluate(0.0); }
  double PeakWatts() const { return curve_.Evaluate(static_cast<double>(num_cores_)); }
  const PiecewiseLinearCurve& curve() const { return curve_; }

 private:
  std::string name_;
  int num_cores_;
  PiecewiseLinearCurve curve_;
  double utilization_ = 0.0;
};

// ---- Calibrated presets (anchors from the paper; see EXPERIMENTS.md) ----

// Intel Core i7-6700K 4-core server (§4.1 base setup), per application.
// Idle 39 W; memcached peak 1 Mpps at ~115 W (Fig 3a).
PiecewiseLinearCurve I7MemcachedCurve();
// libpaxos uses one core; peak 178 Kmsg/s; at the 150 Kpps crossover the
// server draws ~49 W, matching P4xos-in-server (Fig 3b).
PiecewiseLinearCurve I7LibpaxosCurve();
// DPDK constantly polls: "power consumption ... is high even under low load,
// and remains almost constant" (§4.3).
PiecewiseLinearCurve I7DpdkCurve();
// NSD DNS server: 956 Kqps peak at about twice Emu's 48 W (§4.4), crossover
// below 200 Kpps.
PiecewiseLinearCurve I7NsdCurve();
// Synthetic no-I/O workload used for generic hosts / background load.
PiecewiseLinearCurve I7SyntheticCurve();

// Dual-socket Xeon E5-2660 v4 (2 x 14 cores, §7): idle 56 W, one busy core
// 91 W, +1..2 W per extra core, 134 W all-cores, 86 W at 10 % of one core.
PiecewiseLinearCurve XeonE52660SyntheticCurve();

// Factory helpers.
CpuPowerModel MakeI7Server(const std::string& name, PiecewiseLinearCurve curve);
CpuPowerModel MakeXeonE52660Server(const std::string& name);

}  // namespace incod

#endif  // INCOD_SRC_POWER_CPU_POWER_H_
