#include "src/device/fpga_nic.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace incod {

namespace {
// Module names used in the board ledger.
constexpr const char* kShellModule = "shell";
constexpr const char* kPcieModule = "pcie_dma";

bool IsMemoryModule(const std::string& name) {
  return name == "dram_if" || name == "sram_if";
}
}  // namespace

FpgaNic::FpgaNic(Simulation& sim, FpgaNicConfig config)
    : OffloadNic(sim, config.name, PlacementKind::kFpgaNic, config.host_node,
                 config.device_node),
      config_(std::move(config)),
      ledger_(config_.name + "/board") {
  ModulePowerSpec shell = MakeModuleSpec(kShellModule, kFpgaShellWatts, 1.0, 1.0);
  ModulePowerSpec pcie = MakeModuleSpec(kPcieModule, kFpgaPcieWatts, 1.0, 1.0);
  ledger_.AddModule(shell, ModulePowerState::kIdle);
  ledger_.AddModule(pcie, ModulePowerState::kIdle);
}

void FpgaNic::InstallApp(App* app) {
  if (app_count() > 0) {
    throw std::logic_error("FpgaNic: an app is already installed");
  }
  CheckInstallable(app);
  const OffloadPlacementProfile profile = app->OffloadProfile();
  const FpgaPipelineSpec& pipeline = profile.pipeline;
  if (pipeline.workers < 1) {
    throw std::invalid_argument("FpgaNic: pipeline needs >= 1 worker");
  }
  std::vector<std::string> module_names;
  for (const auto& spec : profile.power_modules) {
    if (ledger_.HasModule(spec.name) ||
        std::find(module_names.begin(), module_names.end(), spec.name) !=
            module_names.end()) {
      throw std::invalid_argument("FpgaNic: duplicate power module " + spec.name);
    }
    module_names.push_back(spec.name);
  }
  OffloadEngineModel engine;
  engine.servers = pipeline.workers;
  engine.classifier_hop = kFpgaClassifierLatency;
  engine.completion_latency = pipeline.pipeline_latency;
  engine.queue_capacity = pipeline.input_queue_capacity;
  if (pipeline.worker_service > 0) {
    engine.peak_pps = static_cast<double>(pipeline.workers) * 1e9 /
                      static_cast<double>(pipeline.worker_service);
  }
  SetEngine(engine);
  AddApp(app, pipeline.worker_service, engine.peak_pps);
  dynamic_watts_at_capacity_ = profile.dynamic_watts_at_capacity;
  for (const auto& spec : profile.power_modules) {
    ledger_.AddModule(spec, ModulePowerState::kIdle);
    if (IsMemoryModule(spec.name)) {
      app_memory_modules_.push_back(spec.name);
    } else {
      app_logic_modules_.push_back(spec.name);
    }
  }
  OnParkStateChanged();
}

void FpgaNic::SetAppActive(bool active) {
  if (app() == nullptr && active) {
    throw std::logic_error("FpgaNic: no app installed");
  }
  OffloadNic::SetAppActive(active);
}

void FpgaNic::PowerGateModule(const std::string& module) {
  ledger_.SetState(module, ModulePowerState::kPowerGated);
  power_gated_.push_back(module);
}

void FpgaNic::OnParkStateChanged() {
  auto is_gated = [this](const std::string& name) {
    return std::find(power_gated_.begin(), power_gated_.end(), name) != power_gated_.end();
  };
  for (const auto& name : app_logic_modules_) {
    if (is_gated(name)) {
      continue;
    }
    if (app_active()) {
      ledger_.SetState(name, ModulePowerState::kActive);
    } else {
      ledger_.SetState(name, clock_gating() ? ModulePowerState::kClockGated
                                            : ModulePowerState::kIdle);
    }
  }
  for (const auto& name : app_memory_modules_) {
    if (is_gated(name)) {
      continue;
    }
    if (app_active()) {
      ledger_.SetState(name, ModulePowerState::kActive);
    } else {
      ledger_.SetState(name, memory_reset() ? ModulePowerState::kReset
                                            : ModulePowerState::kIdle);
    }
  }
}

void FpgaNic::PowerGateParkedApp() {
  // The bitstream is not resident while parked: only the always-on shell,
  // PCIe/DMA, and external memory interfaces keep drawing (§9.2).
  for (const auto& name : ledger_.ModuleNames()) {
    if (name != kShellModule && name != kPcieModule && !IsMemoryModule(name)) {
      ledger_.SetState(name, ModulePowerState::kPowerGated);
    }
  }
}

std::string FpgaNic::TargetName() const {
  if (app() != nullptr) {
    return config_.name + "/" + app()->AppName();
  }
  return config_.name;
}

double FpgaNic::PowerWatts() const {
  double dc = ledger_.PowerWatts();
  if (app() != nullptr && app_active() && !engine_dead()) {
    dc += dynamic_watts_at_capacity_ * Utilization();
  }
  if (config_.standalone) {
    return standalone_psu_.WallWatts(dc + kStandaloneOverheadWatts);
  }
  return dc;
}

}  // namespace incod
