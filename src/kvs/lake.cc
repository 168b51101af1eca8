#include "src/kvs/lake.h"

#include <stdexcept>
#include <utility>

#include "src/device/fpga_nic.h"
#include "src/sim/simulation.h"

namespace incod {

LakeCache::LakeCache(LakeConfig config) : config_(config) {
  if (config_.num_pes < 1) {
    throw std::invalid_argument("LakeCache: need >= 1 PE");
  }
  l1_ = std::make_unique<KvStore>(config_.l1_entries);
  if (config_.use_dram) {
    l2_ = std::make_unique<KvStore>(config_.l2_entries);
  }
}

std::vector<ModulePowerSpec> LakeCache::PowerModules() const {
  std::vector<ModulePowerSpec> modules;
  // Classifier + interconnect: the 2.2 W logic total (§5.2) minus the PEs.
  modules.push_back(MakeModuleSpec("classifier", 0.95, kLogicStaticFraction, 1.0));
  for (int i = 0; i < config_.num_pes; ++i) {
    modules.push_back(MakeModuleSpec("pe" + std::to_string(i), kFpgaPeWatts,
                                     kLogicStaticFraction, 1.0));
  }
  if (config_.use_dram) {
    modules.push_back(MakeModuleSpec("dram_if", kFpgaDramWatts, 1.0, kMemResetFraction));
  }
  if (config_.use_sram) {
    modules.push_back(MakeModuleSpec("sram_if", kFpgaSramWatts, 1.0, kMemResetFraction));
  }
  return modules;
}

FpgaPipelineSpec LakeCache::PipelineSpec() const {
  FpgaPipelineSpec spec;
  spec.workers = config_.num_pes;
  spec.worker_service = config_.pe_service;
  spec.pipeline_latency = config_.pipeline_latency;
  spec.input_queue_capacity = 512;
  return spec;
}

void LakeCache::Reply(AppContext& ctx, const Packet& request, const KvResponse& response,
                      SimDuration extra_delay) {
  const NodeId src = ctx.self_node() != 0 ? ctx.self_node() : request.dst;
  Packet out = MakeKvResponsePacket(src, request.src, response, request.id,
                                    ctx.sim().Now());
  AppContext* c = &ctx;
  ctx.sim().Schedule(extra_delay, [c, out = std::move(out)]() mutable {
    c->Reply(std::move(out));
  });
}

void LakeCache::HandlePacket(AppContext& ctx, Packet packet) {
  const KvRequest req = PayloadAs<KvRequest>(packet);
  switch (req.op) {
    case KvOp::kGet: {
      uint32_t bytes = 0;
      if (l1_->Get(req.key, &bytes)) {
        l1_hits_.Increment();
        Reply(ctx, packet, KvResponse{KvOp::kGet, req.key, true, bytes},
              config_.l1_reply_delay);
        return;
      }
      if (l2_ != nullptr && l2_->Get(req.key, &bytes)) {
        l2_hits_.Increment();
        // Promote to L1 for subsequent hits.
        l1_->Set(req.key, bytes);
        Reply(ctx, packet, KvResponse{KvOp::kGet, req.key, true, bytes},
              config_.l2_reply_delay);
        return;
      }
      misses_to_host_.Increment();
      ctx.Punt(std::move(packet));
      return;
    }
    case KvOp::kSet: {
      // Write-through: update the cache levels, then let the host store the
      // authoritative copy (it also produces the client's reply).
      l1_->Set(req.key, req.value_bytes);
      if (l2_ != nullptr) {
        l2_->Set(req.key, req.value_bytes);
      }
      ctx.Punt(std::move(packet));
      return;
    }
    case KvOp::kDelete: {
      l1_->Delete(req.key);
      if (l2_ != nullptr) {
        l2_->Delete(req.key);
      }
      ctx.Punt(std::move(packet));
      return;
    }
  }
}

void LakeCache::OnMemoryReset() {
  // Both cache levels lose their contents: "at first all memory accesses
  // will be a miss ... until the cache, both on and off chip, warms" (§9.2).
  l1_->Clear();
  if (l2_ != nullptr) {
    l2_->Clear();
  }
}

void LakeCache::OnHostEgress(AppContext& ctx, const Packet& packet) {
  (void)ctx;
  const KvResponse* resp_if = PayloadIf<KvResponse>(packet);
  if (resp_if == nullptr) {
    return;
  }
  const KvResponse& resp = *resp_if;
  if (resp.op == KvOp::kGet && resp.hit) {
    // Fill on the way out: the next GET for this key hits in hardware.
    if (l2_ != nullptr) {
      l2_->Set(resp.key, resp.value_bytes);
    }
    l1_->Set(resp.key, resp.value_bytes);
  }
}

void LakeCache::WarmFill(uint64_t first_key, uint64_t count, uint32_t value_bytes) {
  for (uint64_t k = first_key; k < first_key + count; ++k) {
    if (l2_ != nullptr) {
      l2_->Set(k, value_bytes);
    }
    if (k < first_key + l1_->capacity()) {
      l1_->Set(k, value_bytes);
    }
  }
}

double LakeCache::HardwareHitRatio() const {
  const uint64_t hw = l1_hits_.value() + l2_hits_.value();
  const uint64_t total = hw + misses_to_host_.value();
  return total == 0 ? 0.0 : static_cast<double>(hw) / static_cast<double>(total);
}

AppState LakeCache::SnapshotState() const {
  KvAppState kv;
  kv.primary = l1_->SnapshotLru();
  if (l2_ != nullptr) {
    kv.secondary = l2_->SnapshotLru();
  }
  return AppState{proto(), AppName(), std::move(kv)};
}

void LakeCache::RestoreState(const AppState& state) {
  const KvAppState* kv = std::get_if<KvAppState>(&state.data);
  if (kv == nullptr) {
    return;
  }
  l1_->RestoreLru(kv->primary);
  if (l2_ != nullptr) {
    // A host store's snapshot has everything in `primary`; LaKe fills its
    // large L2 from whichever side carries the bulk contents.
    l2_->RestoreLru(kv->secondary.empty() ? kv->primary : kv->secondary);
  }
}

}  // namespace incod
