#include "src/power/cpu_power.h"

#include <algorithm>

namespace incod {

CpuPowerModel::CpuPowerModel(std::string name, int num_cores,
                             PiecewiseLinearCurve utilization_to_watts)
    : name_(std::move(name)), num_cores_(num_cores), curve_(std::move(utilization_to_watts)) {}

void CpuPowerModel::SetUtilization(double total_core_utilization) {
  utilization_ =
      std::clamp(total_core_utilization, 0.0, static_cast<double>(num_cores_));
}

double CpuPowerModel::PowerWatts() const { return curve_.Evaluate(utilization_); }

// Calibration anchors. x = total core utilization, y = wall watts.
// Sources: Fig 3(a-c), §4.2-4.4, §7. The i7 curves describe the server
// *without* its network card: NICs and accelerator boards are separate
// PowerSources attached alongside, so the paper's totals compose:
//   software KVS idle = 35 W server + 4 W Mellanox NIC = 39 W (§4.2)
//   LaKe idle         = 35 W server + 24 W NetFPGA board = 59 W (§4.2)
// Derived quantities (crossover rates, on-demand savings) are *not*
// anchored; they emerge from the simulation.

PiecewiseLinearCurve I7MemcachedCurve() {
  return PiecewiseLinearCurve({
      {0.0, 35.0},    // idle server, no cards
      {0.32, 54.5},   // ~80 Kpps: +NIC ~58.5 W, near LaKe's 59 W (Fig 3a)
      {1.0, 68.0},
      {2.0, 84.0},
      {3.0, 98.0},
      {4.0, 111.0},   // 1 Mpps peak, all 4 cores busy (~115 W with NIC)
  });
}

PiecewiseLinearCurve I7LibpaxosCurve() {
  return PiecewiseLinearCurve({
      {0.0, 35.0},
      {0.42, 39.5},
      {0.84, 43.6},   // +4 W NIC ~= P4xos-in-server at ~150 Kmsg/s (Fig 3b)
      {1.0, 48.0},    // 178 Kmsg/s peak (one core)
  });
}

PiecewiseLinearCurve I7DpdkCurve() {
  // The DPDK run-to-completion loop polls continuously; the busy-poll burns
  // close to peak power regardless of offered load (§4.3).
  return PiecewiseLinearCurve({
      {0.0, 35.0},    // process not running
      {1.0, 89.0},    // poll thread active, zero offered load
      {2.0, 94.0},
      {4.0, 99.0},
  });
}

PiecewiseLinearCurve I7NsdCurve() {
  return PiecewiseLinearCurve({
      {0.0, 35.5},
      {0.8, 44.5},    // +4 W NIC crosses Emu DNS below 200 Kqps (§4.4)
      {2.0, 62.0},
      {4.0, 92.0},    // 956 Kqps peak: ~96 W with NIC, 2x Emu DNS (§4.4)
  });
}

PiecewiseLinearCurve I7SyntheticCurve() {
  return PiecewiseLinearCurve({
      {0.0, 35.0},
      {0.5, 51.0},
      {1.0, 62.0},
      {2.0, 81.0},
      {3.0, 97.0},
      {4.0, 110.0},
  });
}

PiecewiseLinearCurve XeonE52660SyntheticCurve() {
  // §7: idle 56 W; "power consumption of the server jumps when even a single
  // core is used, up to 91W"; "even at a low CPU core load, e.g., 10%, the
  // power consumption of the server reaches 86W"; extra cores cost 1-2 W;
  // 134 W under full load of all 28 cores.
  return PiecewiseLinearCurve({
      {0.0, 56.0},
      {0.1, 86.0},
      {1.0, 91.0},
      {2.0, 92.6},
      {4.0, 95.8},
      {8.0, 102.2},
      {14.0, 111.8},
      {21.0, 123.0},
      {28.0, 134.0},
  });
}

CpuPowerModel MakeI7Server(const std::string& name, PiecewiseLinearCurve curve) {
  return CpuPowerModel(name, 4, std::move(curve));
}

CpuPowerModel MakeXeonE52660Server(const std::string& name) {
  return CpuPowerModel(name, 28, XeonE52660SyntheticCurve());
}

}  // namespace incod
