// NetFPGA-SUME-like FPGA NIC model.
//
// The board is an OffloadNic (offload_nic.h): it acts as the host's NIC at
// all times, its packet classifier passing non-application traffic through,
// and runs one App in its main logical core. The engine is the app's
// FpgaPipelineSpec — parallel workers (LaKe's PEs) behind a 300 ns
// classifier hop. Power is tracked per module in a PowerLedger calibrated
// from §5 of the paper:
//   - shell (PHYs, arbiters)            9.5 W
//   - PCIe & DMA                        1.5 W   -> reference NIC 11 W DC
//   - app logic                         per app (LaKe 2.2 W incl. 5 PEs)
//   - DRAM interface                    4.8 W   (§5.3)
//   - SRAM interface                    6.0 W   (§5.3)
// Clock gating keeps ~60 % of logic power ("earns less than 1W", §5.1);
// holding memory interfaces in reset saves 40 % of their power (§5.1).
// Standalone (hostless) operation adds enclosure overhead plus a PSU.
#ifndef INCOD_SRC_DEVICE_FPGA_NIC_H_
#define INCOD_SRC_DEVICE_FPGA_NIC_H_

#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/device/offload_nic.h"
#include "src/power/ledger.h"
#include "src/power/psu.h"
#include "src/sim/simulation.h"

namespace incod {

// Calibrated board constants (see EXPERIMENTS.md).
constexpr double kFpgaShellWatts = 9.5;
constexpr double kFpgaPcieWatts = 1.5;
constexpr double kFpgaDramWatts = 4.8;        // §5.3: 4GB DRAM costs 4.8 W.
constexpr double kFpgaSramWatts = 6.0;        // §5.3: 18MB SRAM costs 6 W.
constexpr double kFpgaPeWatts = 0.25;         // §5.1: ~0.25 W per PE.
constexpr double kLogicStaticFraction = 0.6;  // Clock gating keeps static power.
constexpr double kMemResetFraction = 0.6;     // Reset saves 40 % (§5.1).
constexpr double kStandaloneOverheadWatts = 1.5;  // Fan + management.
constexpr double kStandalonePsuRatedWatts = 150.0;
// Packet classifier to app core.
constexpr SimDuration kFpgaClassifierLatency = Nanoseconds(300);

struct FpgaNicConfig {
  std::string name = "netfpga";
  NodeId host_node = 1;     // Address of the host behind this NIC.
  NodeId device_node = 0;   // Optional address of the device itself (0: none).
  bool standalone = false;  // Hostless deployment: adds PSU + enclosure.
};

class FpgaNic : public OffloadNic {
 public:
  FpgaNic(Simulation& sim, FpgaNicConfig config);

  // Installs the application core (not owned): any App supporting the
  // FPGA-NIC placement, at most one. Throws, leaving the board unchanged,
  // for a second app, an app whose pipeline has no worker, or one whose
  // power modules repeat a name already on the board or in its own profile.
  // Re-programming the FPGA at runtime is out of scope (the paper keeps the
  // app "programmed but inactive" to avoid a traffic halt, §9.2).
  void InstallApp(App* app);

  // --- Runtime controls (the knobs of §5.1/§9.2, OffloadTarget surface) ---
  // When active, matching packets are processed in the app core; when
  // inactive, everything passes through to the host. Activating a board
  // with no app installed throws.
  void SetAppActive(bool active) override;
  // Permanently removes a module from the design (power gating / rebuild
  // without the module). Used by the Figure 4 ablations.
  void PowerGateModule(const std::string& module);
  // Reprogram-policy parking: the app core is not resident, so every module
  // beyond the always-on shell/PCIe/memory interfaces draws nothing.
  void PowerGateParkedApp() override;

  // --- OffloadTarget identity ---
  std::string TargetName() const override;
  OffloadTargetTraits Traits() const override {
    return OffloadTargetTraits{/*supports_clock_gating=*/true,
                               /*supports_memory_reset=*/true,
                               /*supports_reprogramming=*/true};
  }

  // --- Power ---
  // DC watts drawn from the host's PSU (or, standalone, from its own PSU:
  // then this is wall watts including PSU loss and enclosure overhead).
  double PowerWatts() const override;
  PowerLedger& ledger() { return ledger_; }
  const PowerLedger& ledger() const { return ledger_; }

  const FpgaNicConfig& config() const { return config_; }

 private:
  // Clock gating and memory reset act on the module ledger.
  void OnParkStateChanged() override;

  FpgaNicConfig config_;
  PowerLedger ledger_;
  PsuModel standalone_psu_{kStandalonePsuRatedWatts};
  double dynamic_watts_at_capacity_ = 0;
  std::vector<std::string> app_logic_modules_;
  std::vector<std::string> app_memory_modules_;
  std::vector<std::string> power_gated_;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_FPGA_NIC_H_
