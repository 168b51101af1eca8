#include "src/kvs/memcached_server.h"

#include <utility>

#include "src/sim/simulation.h"

namespace incod {

MemcachedServer::MemcachedServer(MemcachedConfig config)
    : config_(config), store_(config.capacity_entries) {}

SimDuration MemcachedServer::CpuTimePerRequest(const Packet& packet) const {
  const KvRequest& req = PayloadAs<KvRequest>(packet);
  switch (req.op) {
    case KvOp::kGet:
      return config_.get_cpu_time;
    case KvOp::kSet:
    case KvOp::kDelete:
      return config_.set_cpu_time;
  }
  return config_.get_cpu_time;
}

void MemcachedServer::HandlePacket(AppContext& ctx, Packet packet) {
  const KvRequest req = PayloadAs<KvRequest>(packet);
  KvResponse resp;
  resp.op = req.op;
  resp.key = req.key;
  switch (req.op) {
    case KvOp::kGet: {
      gets_.Increment();
      uint32_t bytes = 0;
      resp.hit = store_.Get(req.key, &bytes);
      resp.value_bytes = bytes;
      break;
    }
    case KvOp::kSet:
      sets_.Increment();
      store_.Set(req.key, req.value_bytes);
      resp.hit = true;
      break;
    case KvOp::kDelete:
      sets_.Increment();
      resp.hit = store_.Delete(req.key);
      break;
  }
  ctx.Reply(MakeKvResponsePacket(ctx.self_node(), packet.src, resp, packet.id,
                                 ctx.sim().Now()));
}

AppState MemcachedServer::SnapshotState() const {
  KvAppState kv;
  kv.primary = store_.SnapshotLru();
  return AppState{proto(), AppName(), std::move(kv)};
}

void MemcachedServer::RestoreState(const AppState& state) {
  const KvAppState* kv = std::get_if<KvAppState>(&state.data);
  if (kv == nullptr) {
    return;
  }
  // A layered cache's snapshot splits into secondary (bulk L2) and primary
  // (hot L1). The authoritative store takes both: bulk first, then the hot
  // entries so they land most-recently-used (and win on duplicate keys).
  store_.RestoreLru(kv->secondary, kv->primary);
}

}  // namespace incod
