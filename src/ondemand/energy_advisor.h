// The §8 power model: "When to Use In-Network Computing" made executable.
//
// Every placement is priced by one representation, a RatePowerFn (offered
// rate -> wall watts), built from server curves + service times or device
// idle + dynamic watts. Over it sit eq. 1 (PeriodEnergyJoules) and the
// tipping-point rate that answers §8's two questions: should a standard
// network device be replaced with a programmable one, and at what rate
// should a workload shift into the network. Also covers the §9.4 ToR-switch
// analysis, where the shared forwarding power makes the tipping point
// approach zero. RackOrchestrator (rack.h) is the loop that acts on these
// predictions at run time.
#ifndef INCOD_SRC_ONDEMAND_ENERGY_ADVISOR_H_
#define INCOD_SRC_ONDEMAND_ENERGY_ADVISOR_H_

#include <functional>
#include <optional>
#include <string>

#include "src/power/cpu_power.h"
#include "src/sim/time.h"

namespace incod {

struct SmartNicPreset;  // device/smartnic.h; this header stays device-free.

// rate (pps) -> wall watts.
using RatePowerFn = std::function<double(double)>;

// Server running a software app: utilization = rate * core-seconds/request
// spread across `threads` workers; watts from the calibrated curve. Rates
// beyond saturation clamp at peak utilization.
RatePowerFn MakeServerRatePower(PiecewiseLinearCurve utilization_to_watts,
                                SimDuration core_time_per_request, int threads);

// Host + FPGA NIC deployment: host idle watts plus board power with a linear
// dynamic term up to `capacity_pps`.
RatePowerFn MakeFpgaRatePower(double host_idle_watts, double board_idle_watts,
                              double dynamic_watts_at_capacity, double capacity_pps);

// Programmable switch already forwarding traffic: only the in-network
// program's marginal power counts (§9.4). `forwarding_watts` is shared by
// both placements and excluded.
RatePowerFn MakeSwitchMarginalPower(double program_overhead_fraction,
                                    double max_power_watts, double line_rate_pps);

// Host + SmartNIC deployment (§10 presets) hosting a specific app firmware:
// the FPGA shape with board power scaling linearly from the preset's idle to
// its max at the preset's peak scaled by the app's per-arch Mpps fraction
// (the same power model and ceiling the behavioral SmartNic enforces for a
// hosted App).
RatePowerFn MakeSmartNicRatePower(double host_idle_watts, const SmartNicPreset& preset,
                                  double app_mpps_fraction = 1.0);

// Finds the smallest rate R in [lo, hi] where the network deployment's total
// power is <= the software deployment's, by bisection on the difference
// (assumes the difference changes sign at most once, which holds for the
// monotone curves in this study). Returns nullopt if the network deployment
// never wins on [lo, hi].
std::optional<double> TippingPointRate(const RatePowerFn& software_watts,
                                       const RatePowerFn& network_watts, double lo,
                                       double hi, double tolerance = 1.0);

struct PlacementAdvice {
  // Rate at/above which the network deployment draws no more power.
  std::optional<double> tipping_rate_pps;
  // Network never wins below this sweep bound.
  bool network_never_wins = false;
  // Network wins even at (near) zero rate.
  bool network_always_wins = false;
};

PlacementAdvice AdvisePlacement(const RatePowerFn& software, const RatePowerFn& network,
                                double max_rate_pps);

// §8's eq. 1, E = Pd(R) * Td + Pi * Ti: energy (joules) of serving
// `total_packets` at `rate`, then idling the remainder of `period_seconds`.
// No device in this study sleeps, so the transition term Ps * Ts is zero.
double PeriodEnergyJoules(const RatePowerFn& power, double idle_watts,
                          double total_packets, double rate, double period_seconds);

}  // namespace incod

#endif  // INCOD_SRC_ONDEMAND_ENERGY_ADVISOR_H_
