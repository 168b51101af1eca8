// Emu DNS: the FPGA DNS server (§3.3, §4.4) — the FPGA-NIC placement of
// the DNS app family.
//
// Developed with Kiwi/Emu (C# to FPGA) in the paper; here a unified App
// with the same observable behaviour: authoritative A-record resolution
// from an on-chip table, NXDOMAIN for absent names, and — because the
// original was amended with a LaKe-style packet classifier — NIC
// passthrough for non-DNS traffic. The design is non-pipelined ("a result
// of Emu's non-pipelined nature"), so its peak is ~1 Mqps: one query in
// flight per microsecond. Names deeper than the hardware parser's label
// budget are punted to the host (cf. §9.2's discussion of parse-depth
// limits).
#ifndef INCOD_SRC_DNS_EMU_DNS_H_
#define INCOD_SRC_DNS_EMU_DNS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/dns/dns_message.h"
#include "src/dns/zone.h"
#include "src/dns/zone_state.h"
#include "src/stats/counters.h"

namespace incod {

struct EmuDnsConfig {
  // Non-pipelined service time: peak ~1 Mqps (§4.4).
  SimDuration service_time = Microseconds(1);
  SimDuration egress_latency = Nanoseconds(200);
  // Hardware parser label budget; deeper names go to the host.
  int max_labels = 8;
  // On-chip table capacity (BRAM).
  size_t max_records = 65536;
};

class EmuDns : public App {
 public:
  // The zone is shared (read-only) with the host's NSD so both sides answer
  // identically.
  explicit EmuDns(const Zone* zone, EmuDnsConfig config = {});

  AppProto proto() const override { return AppProto::kDns; }
  std::string AppName() const override { return "emu-dns"; }
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kFpgaNic || placement == PlacementKind::kSmartNic;
  }

  std::vector<ModulePowerSpec> PowerModules() const;
  FpgaPipelineSpec PipelineSpec() const;
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile;
    profile.pipeline = PipelineSpec();
    profile.power_modules = PowerModules();
    profile.dynamic_watts_at_capacity = 0.5;
    profile.smartnic.soc_mpps_fraction = 0.5;  // SoC cores parse slowly (§10).
    return profile;
  }

  void HandlePacket(AppContext& ctx, Packet packet) override;

  // App state contract (zone_state.h): the on-chip zone copy (restore
  // installs an owned zone — a warm table from another placement).
  AppState SnapshotState() const override { return zone_state_.Snapshot(proto(), AppName()); }
  void RestoreState(const AppState& state) override { zone_state_.Restore(state); }

  uint64_t answered() const { return answered_.value(); }
  uint64_t nxdomain() const { return nxdomain_.value(); }
  uint64_t punted_to_host() const { return punted_.value(); }

 private:
  ZoneStateHolder zone_state_;
  EmuDnsConfig config_;
  Counter answered_;
  Counter nxdomain_;
  Counter punted_;
};

}  // namespace incod

#endif  // INCOD_SRC_DNS_EMU_DNS_H_
