// Energy-aware on-demand controller.
//
// §9.1 closes with: "The algorithms used in this paper are naive, providing
// a proof of concept. They can be enhanced by more sophisticated
// algorithms" (citing energy-proportionality work such as PEAS). This
// controller is that enhancement: instead of fixed rate/power thresholds it
// predicts both placements' power at the *measured* application rate using
// the §8 model (calibrated rate->watts curves) and shifts whenever the
// predicted saving exceeds a margin, sustained over a window. Hysteresis
// falls out naturally from using a saving margin in both directions.
#ifndef INCOD_SRC_ONDEMAND_ENERGY_CONTROLLER_H_
#define INCOD_SRC_ONDEMAND_ENERGY_CONTROLLER_H_


#include "src/device/offload_target.h"
#include "src/ondemand/controller.h"
#include "src/ondemand/energy_advisor.h"
#include "src/ondemand/migrator.h"
#include "src/sim/simulation.h"
#include "src/stats/timeseries.h"

namespace incod {

struct EnergyAwareControllerConfig {
  // Shift when the predicted saving of the other placement exceeds this
  // many watts, sustained over `window`.
  double min_saving_watts = 2.0;
  SimDuration window = Seconds(2);
  SimDuration check_period = Milliseconds(100);
  SimDuration min_dwell = Seconds(1);
};

class EnergyAwareController : public OffloadController {
 public:
  // `software_watts` / `network_watts` are the calibrated rate->power
  // functions for the two placements (see MakeServerRatePower /
  // MakeFpgaRatePower / MakeSmartNicRatePower). The application rate is
  // read from the target's classifier, which sees the traffic regardless
  // of placement.
  EnergyAwareController(Simulation& sim, OffloadTarget& target, Migrator& migrator,
                        RatePowerFn software_watts, RatePowerFn network_watts,
                        EnergyAwareControllerConfig config = {});

  void Start() override;

  // Predicted watts for each placement at the given rate (for inspection).
  double PredictSoftwareWatts(double rate_pps) const { return software_watts_(rate_pps); }
  double PredictNetworkWatts(double rate_pps) const { return network_watts_(rate_pps); }
  double last_predicted_saving_watts() const { return last_saving_; }

 private:
  void Tick();

  Simulation& sim_;
  OffloadTarget& target_;
  Migrator& migrator_;
  RatePowerFn software_watts_;
  RatePowerFn network_watts_;
  EnergyAwareControllerConfig config_;
  SlidingWindowMean saving_mean_;
  uint64_t last_ingress_count_ = 0;
  SimTime last_tick_ = 0;
  SimTime last_shift_ = 0;
  double last_saving_ = 0;
  bool started_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_ONDEMAND_ENERGY_CONTROLLER_H_
