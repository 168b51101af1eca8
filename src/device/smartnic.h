// SmartNIC presets and behavioral device model for the §10 placement
// discussion.
//
// The paper surveys four SmartNIC architectures (FPGA, ASIC, ASIC+FPGA,
// SoC) and anchors one concrete data point: Azure's AccelNet FPGA SmartNIC
// at 17-19 W standalone on a 40GE board, "close to 4Mpps/W for some use
// cases". The presets feed the placement advisor and bench_placement; the
// SmartNic device turns a preset into a live OffloadTarget so the on-demand
// layer can place workloads on SmartNICs exactly as it does on the NetFPGA
// or a switch ASIC.
//
// The device is an OffloadNic (offload_nic.h), the same bump-in-the-wire
// datapath as the FPGA NIC, and hosts the same unified Apps (LaKe, Emu DNS,
// P4xos advertise both placements). Its engine is one server with a 2 µs
// completion latency and a 1024-packet queue. Each app's firmware is timed
// at the preset's peak Mpps scaled by the app's per-arch fraction
// (SmartNicPlacementProfile), and occupies resource slots against a
// preset-derived budget — the §10 "resource wall" that caps how many apps a
// SoC board can run at once.
#ifndef INCOD_SRC_DEVICE_SMARTNIC_H_
#define INCOD_SRC_DEVICE_SMARTNIC_H_

#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/device/offload_nic.h"
#include "src/sim/simulation.h"

namespace incod {

struct SmartNicPreset {
  std::string name;
  SmartNicArch arch;
  double idle_watts;
  double max_watts;          // Typically <= 25 W (PCIe slot budget, §10).
  double peak_mpps;          // Packet-processing capability.
  double port_gbps;
  // Qualitative §10 traits used by the advisor.
  bool flexible_interfaces;  // Can attach bespoke memory/storage (FPGA).
  bool scalable_resources;   // SoCs hit the "resource wall" earlier.
};

// Ops-per-watt at full load (Mpps per watt of max power).
double OpsPerWattAtPeak(const SmartNicPreset& preset);

std::vector<SmartNicPreset> StandardSmartNicPresets();

// Standard preset by name ("accelnet-fpga", "agilio-asic", ...); throws
// std::invalid_argument for an unknown name. ScenarioSpecs select SmartNIC
// boards declaratively through this.
SmartNicPreset SmartNicPresetByName(const std::string& name);

// ---------------------------------------------------------------------------
// Behavioral SmartNIC: a preset brought to life as a datapath + OffloadTarget.
// ---------------------------------------------------------------------------

// Engine constants shared by every preset.
constexpr SimDuration kSmartNicEngineLatency = Microseconds(2);  // SoC/ASIC path.
constexpr size_t kSmartNicQueueCapacity = 1024;
// Fraction of the preset's idle watts belonging to the offload engine
// (cores / FPGA region), as opposed to the base NIC datapath. Clock gating
// the parked engine saves 40 % of this share (mirroring §5.1); power gating
// it (reprogram-style parking) saves all of it.
constexpr double kSmartNicEngineFraction = 0.3;

struct SmartNicDeviceConfig {
  std::string name = "smartnic";
  NodeId host_node = 1;
  // Optional address of the board itself (0: none); hosted apps reply from
  // it when set.
  NodeId device_node = 0;
};

class SmartNic : public OffloadNic {
 public:
  SmartNic(Simulation& sim, SmartNicPreset preset, SmartNicDeviceConfig config);

  // Installs a unified App (not owned) on the offload engine. The app must
  // support the SmartNIC placement; its per-arch profile sets the firmware's
  // Mpps ceiling and slot footprint. Throws, leaving the board unchanged,
  // when the firmware does not run on this arch, claims no slot, or the
  // board's slot budget — the §10 resource wall — is exhausted.
  void InstallApp(App* app);
  // Engine slots this board offers: SoC-class (non-scalable) boards hit the
  // resource wall after kSocAppSlots; scalable silicon fits kScalableAppSlots.
  int AppSlotCapacity() const;
  int app_slots_used() const { return slots_used_; }

  // --- OffloadTarget ---
  std::string TargetName() const override;
  // Only FPGA-bearing boards can be (partially) reconfigured at runtime.
  OffloadTargetTraits Traits() const override;
  void PowerGateParkedApp() override;

  // --- Power ---
  // idle + (max - idle) * utilization while serving; parked savings depend
  // on the engine share and park depth.
  double PowerWatts() const override;

  const SmartNicPreset& preset() const { return preset_; }
  const SmartNicDeviceConfig& config() const { return config_; }

 private:
  SmartNicPreset preset_;
  SmartNicDeviceConfig config_;
  int slots_used_ = 0;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_SMARTNIC_H_
