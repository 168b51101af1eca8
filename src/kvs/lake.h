// LaKe: layered key-value store cache on the FPGA NIC (§3.1, §5).
//
// Two cache levels sit in front of the host's memcached:
//   L1: on-chip BRAM (small, ~1.4 us total hit latency),
//   L2: on-board DRAM (33M entries, a few hundred ns extra; §5.3),
// with misses punted over PCIe to the host ("A query is only forwarded to
// software if there are misses at both layers"). SETs update both cache
// levels (write-through) and continue to the authoritative host store.
// GET-miss replies from the host fill the caches on their way out.
//
// Power (§5.1-5.3): logic overhead over the reference NIC is 2.2 W for five
// PEs plus classifier/interconnect; each PE costs ~0.25 W and sustains up to
// 3.3 Mqps; DRAM interface 4.8 W; SRAM interface 6 W.
#ifndef INCOD_SRC_KVS_LAKE_H_
#define INCOD_SRC_KVS_LAKE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/kv_store.h"
#include "src/stats/counters.h"

namespace incod {

struct LakeConfig {
  int num_pes = 5;                 // 5 PEs reach 10GE line rate (§3.1).
  size_t l1_entries = 4096;        // On-chip BRAM cache.
  bool use_dram = true;            // L2 cache in on-board DRAM.
  bool use_sram = true;            // Free-chunk list in SRAM (power only).
  size_t l2_entries = 33'000'000;  // 4GB DRAM: 33M 64B-chunk entries (§5.3).
  // Per-PE initiation interval: 3.3 Mqps per PE (§5.2).
  SimDuration pe_service = Nanoseconds(303);
  // Constant pipeline traversal cost (parse + hash + egress).
  SimDuration pipeline_latency = Nanoseconds(800);
  // Additional L1 (BRAM) lookup-to-reply time: total on-chip hit <= 1.4 us.
  SimDuration l1_reply_delay = Nanoseconds(300);
  // Additional DRAM access time for an L2 hit (total ~1.9 us, §5.3).
  SimDuration l2_reply_delay = Nanoseconds(800);
};

class LakeCache : public App {
 public:
  explicit LakeCache(LakeConfig config = {});

  AppProto proto() const override { return AppProto::kKv; }
  std::string AppName() const override { return "lake"; }
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kFpgaNic || placement == PlacementKind::kSmartNic;
  }

  std::vector<ModulePowerSpec> PowerModules() const;
  FpgaPipelineSpec PipelineSpec() const;
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile;
    profile.pipeline = PipelineSpec();
    profile.power_modules = PowerModules();
    profile.dynamic_watts_at_capacity = 1.0;
    // SmartNIC firmware (§10): FPGA regions run the pipeline as-is,
    // fixed-function ASIC engines lose some flexibility-dependent speed,
    // SoC cores parse anything but slowly. The two cache levels take two
    // engine slots, so a resource-walled SoC board fits exactly one KVS.
    profile.smartnic.asic_mpps_fraction = 0.75;
    profile.smartnic.soc_mpps_fraction = 0.35;
    profile.smartnic.resource_slots = 2;
    return profile;
  }

  void HandlePacket(AppContext& ctx, Packet packet) override;
  void OnMemoryReset() override;
  void OnHostEgress(AppContext& ctx, const Packet& packet) override;

  // App state contract: both cache levels in LRU order (the warm state a
  // kKeepWarm park or a generic state transfer preserves).
  AppState SnapshotState() const override;
  void RestoreState(const AppState& state) override;

  // Pre-populates both cache levels (benchmark warm start).
  void WarmFill(uint64_t first_key, uint64_t count, uint32_t value_bytes);

  KvStore& l1() { return *l1_; }
  KvStore* l2() { return l2_.get(); }
  const LakeConfig& config() const { return config_; }

  uint64_t l1_hits() const { return l1_hits_.value(); }
  uint64_t l2_hits() const { return l2_hits_.value(); }
  uint64_t misses_to_host() const { return misses_to_host_.value(); }
  // Hardware-served fraction of GETs (cache effectiveness).
  double HardwareHitRatio() const;

 private:
  void Reply(AppContext& ctx, const Packet& request, const KvResponse& response,
             SimDuration extra_delay);

  LakeConfig config_;
  std::unique_ptr<KvStore> l1_;
  std::unique_ptr<KvStore> l2_;
  Counter l1_hits_;
  Counter l2_hits_;
  Counter misses_to_host_;
};

}  // namespace incod

#endif  // INCOD_SRC_KVS_LAKE_H_
