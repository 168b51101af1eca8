#include "src/ondemand/energy_advisor.h"

#include <algorithm>
#include <stdexcept>

#include "src/device/smartnic.h"

namespace incod {

RatePowerFn MakeServerRatePower(PiecewiseLinearCurve utilization_to_watts,
                                SimDuration core_time_per_request, int threads) {
  if (threads < 1) {
    throw std::invalid_argument("MakeServerRatePower: threads >= 1");
  }
  const double core_seconds = ToSeconds(core_time_per_request);
  const double max_util = static_cast<double>(threads);
  return [curve = std::move(utilization_to_watts), core_seconds, max_util](double rate) {
    const double util = std::min(max_util, rate * core_seconds);
    return curve.Evaluate(util);
  };
}

RatePowerFn MakeFpgaRatePower(double host_idle_watts, double board_idle_watts,
                              double dynamic_watts_at_capacity, double capacity_pps) {
  if (capacity_pps <= 0) {
    throw std::invalid_argument("MakeFpgaRatePower: capacity must be > 0");
  }
  return [=](double rate) {
    const double util = std::min(1.0, rate / capacity_pps);
    return host_idle_watts + board_idle_watts + dynamic_watts_at_capacity * util;
  };
}

RatePowerFn MakeSwitchMarginalPower(double program_overhead_fraction,
                                    double max_power_watts, double line_rate_pps) {
  if (line_rate_pps <= 0) {
    throw std::invalid_argument("MakeSwitchMarginalPower: line rate must be > 0");
  }
  return [=](double rate) {
    const double util = std::min(1.0, rate / line_rate_pps);
    // Marginal cost of running the program on traffic already being
    // forwarded: overhead fraction of the load-dependent power only.
    return max_power_watts * program_overhead_fraction * util;
  };
}

RatePowerFn MakeSmartNicRatePower(double host_idle_watts, const SmartNicPreset& preset,
                                  double app_mpps_fraction) {
  // The FPGA shape with the dynamic term as the idle-to-max swing (how
  // SmartNIC presets are specified, §10).
  return MakeFpgaRatePower(host_idle_watts, preset.idle_watts,
                           preset.max_watts - preset.idle_watts,
                           preset.peak_mpps * 1e6 * app_mpps_fraction);
}

std::optional<double> TippingPointRate(const RatePowerFn& software_watts,
                                       const RatePowerFn& network_watts, double lo,
                                       double hi, double tolerance) {
  if (lo > hi) {
    throw std::invalid_argument("TippingPointRate: lo > hi");
  }
  auto diff = [&](double r) { return software_watts(r) - network_watts(r); };
  if (diff(lo) >= 0) {
    return lo;  // Network already wins at (or below) the low end.
  }
  if (diff(hi) < 0) {
    return std::nullopt;  // Network never wins on this range.
  }
  double a = lo;
  double b = hi;
  while (b - a > tolerance) {
    const double mid = 0.5 * (a + b);
    if (diff(mid) >= 0) {
      b = mid;
    } else {
      a = mid;
    }
  }
  return b;
}

PlacementAdvice AdvisePlacement(const RatePowerFn& software, const RatePowerFn& network,
                                double max_rate_pps) {
  PlacementAdvice advice;
  const auto tipping = TippingPointRate(software, network, 0.0, max_rate_pps, 1.0);
  if (!tipping.has_value()) {
    advice.network_never_wins = true;
    return advice;
  }
  advice.tipping_rate_pps = *tipping;
  advice.network_always_wins = *tipping <= 1.0;
  return advice;
}

double PeriodEnergyJoules(const RatePowerFn& power, double idle_watts,
                          double total_packets, double rate, double period_seconds) {
  if (rate <= 0) {
    return idle_watts * period_seconds;
  }
  const double busy_seconds = std::min(period_seconds, total_packets / rate);
  const double idle_seconds = period_seconds - busy_seconds;
  return power(rate) * busy_seconds + idle_watts * idle_seconds;
}

}  // namespace incod
