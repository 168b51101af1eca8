// Tests for the KV store, protocol, memcached model, and LaKe.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <list>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include "src/device/fpga_nic.h"
#include "src/host/server.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/kv_store.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/net/topology.h"
#include "src/power/cpu_power.h"
#include "src/sim/simulation.h"

// Every global allocation in this binary is counted, so a test can assert
// that a window of store operations allocated nothing.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler does not pair malloc() and free() with the
// new and delete expressions that call these.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace incod {
namespace {

TEST(KvStoreTest, SetGetDelete) {
  KvStore store(10);
  uint32_t bytes = 0;
  EXPECT_FALSE(store.Get(1, &bytes));
  store.Set(1, 100);
  EXPECT_TRUE(store.Get(1, &bytes));
  EXPECT_EQ(bytes, 100u);
  EXPECT_TRUE(store.Delete(1));
  EXPECT_FALSE(store.Delete(1));
  EXPECT_FALSE(store.Get(1, nullptr));
}

TEST(KvStoreTest, UpdateReplacesValue) {
  KvStore store(10);
  store.Set(1, 100);
  store.Set(1, 200);
  uint32_t bytes = 0;
  EXPECT_TRUE(store.Get(1, &bytes));
  EXPECT_EQ(bytes, 200u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStoreTest, EvictsLeastRecentlyUsed) {
  KvStore store(3);
  store.Set(1, 1);
  store.Set(2, 2);
  store.Set(3, 3);
  // Touch 1 so 2 becomes LRU.
  EXPECT_TRUE(store.Get(1, nullptr));
  store.Set(4, 4);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_FALSE(store.Contains(2));
  EXPECT_TRUE(store.Contains(3));
  EXPECT_TRUE(store.Contains(4));
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(KvStoreTest, CapacityNeverExceeded) {
  KvStore store(100);
  for (uint64_t k = 0; k < 1000; ++k) {
    store.Set(k, 1);
    EXPECT_LE(store.size(), 100u);
  }
  EXPECT_EQ(store.evictions(), 900u);
}

TEST(KvStoreTest, HitRatioTracked) {
  KvStore store(10);
  store.Set(1, 1);
  store.Get(1, nullptr);
  store.Get(2, nullptr);
  EXPECT_DOUBLE_EQ(store.lookup_stats().HitRatio(), 0.5);
  store.ResetStats();
  EXPECT_EQ(store.lookup_stats().total(), 0u);
}

TEST(KvStoreTest, ClearEmptiesStore) {
  KvStore store(10);
  store.Set(1, 1);
  store.Set(2, 2);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Contains(1));
}

TEST(KvStoreTest, RejectsZeroCapacity) {
  EXPECT_THROW(KvStore(0), std::invalid_argument);
}

// LRU property under a random workload: after any operation sequence the
// store holds the `capacity` most recently touched distinct keys.
class KvStoreLruPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KvStoreLruPropertyTest, MostRecentKeysSurvive) {
  const size_t capacity = GetParam();
  KvStore store(capacity);
  Rng rng(1234);
  std::vector<uint64_t> touch_order;  // Most recent at back.
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 50));
    const bool write = rng.Bernoulli(0.5);
    bool touched;
    if (write) {
      store.Set(key, 1);
      touched = true;
    } else {
      touched = store.Get(key, nullptr);
    }
    if (touched) {
      auto it = std::find(touch_order.begin(), touch_order.end(), key);
      if (it != touch_order.end()) {
        touch_order.erase(it);
      }
      touch_order.push_back(key);
    }
  }
  // The last min(capacity, distinct) touched keys must all be resident.
  size_t checked = 0;
  for (auto it = touch_order.rbegin(); it != touch_order.rend() && checked < capacity;
       ++it, ++checked) {
    EXPECT_TRUE(store.Contains(*it)) << "key " << *it;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, KvStoreLruPropertyTest,
                         ::testing::Values(1u, 4u, 16u, 51u));

// Reference LRU for the differential test: the std::list + unordered_map
// design the slab store replaced, kept only here.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  bool Get(uint64_t key, uint32_t* value_bytes) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    *value_bytes = it->second->value_bytes;
    return true;
  }

  void Set(uint64_t key, uint32_t value_bytes) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->value_bytes = value_bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (index_.size() >= capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++evictions_;
    }
    lru_.push_front(KvEntry{key, value_bytes});
    index_[key] = lru_.begin();
  }

  bool Delete(uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    lru_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void Clear() {
    lru_.clear();
    index_.clear();
  }

  void RestoreLru(const std::vector<KvEntry>& bulk, const std::vector<KvEntry>& hot) {
    Clear();
    for (const KvEntry& e : bulk) {
      Set(e.key, e.value_bytes);
    }
    for (const KvEntry& e : hot) {
      Set(e.key, e.value_bytes);
    }
  }

  std::vector<KvEntry> SnapshotLru() const {
    return std::vector<KvEntry>(lru_.rbegin(), lru_.rend());
  }

  bool Contains(uint64_t key) const { return index_.count(key) != 0; }
  size_t size() const { return index_.size(); }
  uint64_t evictions() const { return evictions_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  size_t capacity_;
  std::list<KvEntry> lru_;  // Front: most recently used.
  std::unordered_map<uint64_t, std::list<KvEntry>::iterator> index_;
  uint64_t evictions_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// A key whose index hash (the store's multiplicative hash, mirrored here)
// is `hash`: the top bits of `hash` pick the home slot at every table size,
// so keys built from one prefix collide in the index and keys from adjacent
// prefixes share probe chains. 0xFFFF prefixes home on the last slot, so
// their chains wrap around the table.
uint64_t KeyWithIndexHash(uint64_t hash) {
  constexpr uint64_t kMultiplier = 0x9E3779B97F4A7C15ull;
  uint64_t inverse = kMultiplier;  // Newton's iteration for the 2-adic inverse.
  for (int i = 0; i < 5; ++i) {
    inverse *= 2 - kMultiplier * inverse;
  }
  return hash * inverse;
}

std::vector<KvEntry> RandomEntries(Rng& rng, const std::vector<uint64_t>& keys, size_t n) {
  std::vector<KvEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1));
    entries.push_back(KvEntry{keys[k], static_cast<uint32_t>(rng.UniformInt(1, 1500))});
  }
  return entries;
}

void ExpectSameEntries(const std::vector<KvEntry>& got, const std::vector<KvEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << "LRU position " << i;
    ASSERT_EQ(got[i].value_bytes, want[i].value_bytes) << "LRU position " << i;
  }
}

void ExpectSameState(const KvStore& store, const ReferenceLru& ref) {
  EXPECT_EQ(store.size(), ref.size());
  EXPECT_EQ(store.evictions(), ref.evictions());
  EXPECT_EQ(store.lookup_stats().hits(), ref.hits());
  EXPECT_EQ(store.lookup_stats().misses(), ref.misses());
  ExpectSameEntries(store.SnapshotLru(), ref.SnapshotLru());
}

// Seeded random Get/Set/Delete/Clear/RestoreLru streams against the
// reference LRU: every return value and, after each phase, the whole
// observable state (size, evictions, lookup stats, LRU order) must match.
class KvStoreDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KvStoreDifferentialTest, MatchesReferenceLru) {
  const size_t capacity = GetParam();
  Rng rng(0xC0FFEE + capacity);
  // Half the key space collides in the index (four 16-bit hash prefixes,
  // two of them adjacent and one wrapping), half is spread by the hash.
  std::vector<uint64_t> keys;
  const uint64_t prefixes[] = {0x0000, 0x8000, 0x8001, 0xFFFF};
  const size_t per_prefix = std::min<size_t>(capacity + 2, 64);
  for (const uint64_t prefix : prefixes) {
    for (size_t i = 0; i < per_prefix; ++i) {
      keys.push_back(KeyWithIndexHash((prefix << 48) | (rng.NextU64() >> 16)));
    }
  }
  for (size_t i = 0; i < 2 * capacity + 8; ++i) {
    keys.push_back(rng.NextU64());
  }

  KvStore store(capacity);
  ReferenceLru ref(capacity);
  const int phases = 30;
  const int ops_per_phase = static_cast<int>(std::max<size_t>(400, 4 * capacity));
  for (int phase = 0; phase < phases; ++phase) {
    for (int op = 0; op < ops_per_phase; ++op) {
      const uint64_t key = keys[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
      const int64_t roll = rng.UniformInt(0, 999);
      if (roll < 450) {
        uint32_t got = 0;
        uint32_t want = 0;
        ASSERT_EQ(store.Get(key, &got), ref.Get(key, &want));
        ASSERT_EQ(got, want);
      } else if (roll < 850) {
        const auto bytes = static_cast<uint32_t>(rng.UniformInt(1, 1500));
        store.Set(key, bytes);
        ref.Set(key, bytes);
      } else if (roll < 997) {
        ASSERT_EQ(store.Delete(key), ref.Delete(key));
      } else if (roll < 998) {
        store.Clear();
        ref.Clear();
      } else {
        // Restores with duplicate keys, some larger than the capacity.
        const auto n = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(2 * capacity + 4)));
        const std::vector<KvEntry> bulk = RandomEntries(rng, keys, n);
        const std::vector<KvEntry> hot = RandomEntries(rng, keys, n / 4);
        store.RestoreLru(bulk, hot);
        ref.RestoreLru(bulk, hot);
      }
      ASSERT_EQ(store.Contains(key), ref.Contains(key));
      ASSERT_EQ(store.size(), ref.size());
      // Small stores: every resident key must stay findable after every
      // operation, so a broken index fails here instead of corrupting on.
      if (capacity <= 64) {
        for (const KvEntry& e : ref.SnapshotLru()) {
          ASSERT_TRUE(store.Contains(e.key)) << "key " << e.key << " lost";
        }
      }
    }
    ExpectSameState(store, ref);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    // A restore of the store's own snapshot is an identity.
    if (phase % 10 == 9) {
      const std::vector<KvEntry> snapshot = ref.SnapshotLru();
      store.RestoreLru(snapshot);
      ref.RestoreLru(snapshot, {});
      ExpectSameState(store, ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, KvStoreDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 64u, 4096u));

TEST(KvStoreTest, SteadyStateGetSetAllocatesNothing) {
  constexpr size_t kCapacity = 4096;
  KvStore store(kCapacity);
  for (uint64_t k = 0; k < kCapacity; ++k) {
    store.Set(k, 64);
  }
  uint64_t x = 88172645463325252ull;  // xorshift64: no allocation per key.
  uint64_t hits = 0;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint64_t key = x % (2 * kCapacity);
    if ((x >> 32) % 4 == 0) {
      store.Set(key, static_cast<uint32_t>(x >> 40));
    } else {
      uint32_t bytes = 0;
      hits += store.Get(key, &bytes) ? 1 : 0;
    }
  }
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(store.evictions(), 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(store.size(), kCapacity);
}

TEST(KvStoreTest, RestoreAllocationsDoNotGrowWithEntries) {
  auto restore_allocations = [](size_t n) {
    std::vector<KvEntry> entries;
    for (uint64_t k = 0; k < n; ++k) {
      entries.push_back(KvEntry{k * 7919, 64});
    }
    KvStore store(1 << 20);
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    store.RestoreLru(entries);
    const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(store.size(), n);
    return allocations;
  };
  const uint64_t small = restore_allocations(1000);
  const uint64_t large = restore_allocations(100'000);
  EXPECT_EQ(large, small);
  EXPECT_LE(large, 2u);  // The slab and the index, each sized once.
}

TEST(KvProtocolTest, WireSizes) {
  KvRequest get{KvOp::kGet, 1, 0};
  KvRequest set{KvOp::kSet, 1, 500};
  EXPECT_EQ(KvRequestWireBytes(get), kKvHeaderBytes + 8);
  EXPECT_EQ(KvRequestWireBytes(set), kKvHeaderBytes + 8 + 500);
  KvResponse hit{KvOp::kGet, 1, true, 300};
  KvResponse miss{KvOp::kGet, 1, false, 0};
  EXPECT_EQ(KvResponseWireBytes(hit), kKvHeaderBytes + 8 + 300);
  EXPECT_EQ(KvResponseWireBytes(miss), kKvHeaderBytes + 8);
  EXPECT_STREQ(KvOpName(KvOp::kSet), "SET");
}

TEST(KvProtocolTest, PacketBuilders) {
  const Packet req = MakeKvRequestPacket(100, 1, KvRequest{KvOp::kGet, 7, 0}, 99, 1234);
  EXPECT_EQ(req.proto, AppProto::kKv);
  EXPECT_EQ(req.id, 99u);
  EXPECT_EQ(req.created_at, 1234);
  EXPECT_EQ(PayloadAs<KvRequest>(req).key, 7u);
}

struct MemcachedHarness {
  MemcachedHarness() : sim(), topo(sim), server(sim, Config()) {
    server.BindApp(&memcached);
    link = topo.Connect(&server, &client_side);
    server.SetUplink(link);
  }
  static ServerConfig Config() {
    ServerConfig config;
    config.node = 1;
    config.power_curve = I7MemcachedCurve();
    return config;
  }
  static MemcachedConfig SingleThread() {
    MemcachedConfig config;
    config.threads = 1;  // Serialize ops so reply order is deterministic.
    return config;
  }
  struct Collector : PacketSink {
    void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
    std::string SinkName() const override { return "client"; }
    std::vector<Packet> packets;
  };
  Simulation sim;
  Topology topo;
  Collector client_side;
  MemcachedServer memcached{SingleThread()};
  Server server;
  Link* link;
};

TEST(MemcachedTest, GetMissThenSetThenHit) {
  MemcachedHarness h;
  h.server.Receive(MakeKvRequestPacket(100, 1, KvRequest{KvOp::kGet, 5, 0}, 1, 0));
  h.server.Receive(MakeKvRequestPacket(100, 1, KvRequest{KvOp::kSet, 5, 64}, 2, 0));
  h.server.Receive(MakeKvRequestPacket(100, 1, KvRequest{KvOp::kGet, 5, 0}, 3, 0));
  h.sim.Run();
  ASSERT_EQ(h.client_side.packets.size(), 3u);
  EXPECT_FALSE(PayloadAs<KvResponse>(h.client_side.packets[0]).hit);
  EXPECT_TRUE(PayloadAs<KvResponse>(h.client_side.packets[1]).hit);
  const auto& last = PayloadAs<KvResponse>(h.client_side.packets[2]);
  EXPECT_TRUE(last.hit);
  EXPECT_EQ(last.value_bytes, 64u);
  EXPECT_EQ(h.memcached.gets(), 2u);
  EXPECT_EQ(h.memcached.sets(), 1u);
}

TEST(MemcachedTest, DeleteRemoves) {
  MemcachedHarness h;
  h.server.Receive(MakeKvRequestPacket(100, 1, KvRequest{KvOp::kSet, 5, 64}, 1, 0));
  h.server.Receive(MakeKvRequestPacket(100, 1, KvRequest{KvOp::kDelete, 5, 0}, 2, 0));
  h.server.Receive(MakeKvRequestPacket(100, 1, KvRequest{KvOp::kGet, 5, 0}, 3, 0));
  h.sim.Run();
  ASSERT_EQ(h.client_side.packets.size(), 3u);
  EXPECT_TRUE(PayloadAs<KvResponse>(h.client_side.packets[1]).hit);
  EXPECT_FALSE(PayloadAs<KvResponse>(h.client_side.packets[2]).hit);
}

// ---- LaKe ----

struct LakeHarness {
  explicit LakeHarness(LakeConfig config = SmallLakeConfig(), bool with_host = true,
                       double link_gbps = 10.0)
      : sim(), topo(sim), lake(config), fpga(sim, FpgaConfig()) {
    fpga.InstallApp(&lake);
    Link::Config link_config;
    link_config.gigabits_per_second = link_gbps;
    net_link = topo.Connect(&client_side, &fpga, link_config);
    fpga.SetNetworkLink(net_link);
    if (with_host) {
      host_link = topo.Connect(&fpga, &host_side);
      fpga.SetHostLink(host_link);
    }
    fpga.SetAppActive(true);
  }
  static LakeConfig SmallLakeConfig() {
    LakeConfig config;
    config.l1_entries = 4;
    config.l2_entries = 64;
    return config;
  }
  static FpgaNicConfig FpgaConfig() {
    FpgaNicConfig config;
    config.host_node = 1;
    config.device_node = 50;
    return config;
  }
  struct Collector : PacketSink {
    void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
    std::string SinkName() const override { return "side"; }
    std::vector<Packet> packets;
  };
  Packet Get(uint64_t key, uint64_t id = 1) {
    return MakeKvRequestPacket(100, 1, KvRequest{KvOp::kGet, key, 0}, id, sim.Now());
  }
  Packet Set(uint64_t key, uint32_t bytes, uint64_t id = 1) {
    return MakeKvRequestPacket(100, 1, KvRequest{KvOp::kSet, key, bytes}, id, sim.Now());
  }
  Simulation sim;
  Topology topo;
  Collector client_side;
  Collector host_side;
  LakeCache lake;
  FpgaNic fpga;
  Link* net_link;
  Link* host_link = nullptr;
};

TEST(LakeTest, L1HitServedInHardware) {
  LakeHarness h;
  h.lake.l1().Set(7, 64);
  h.fpga.Receive(h.Get(7));
  h.sim.Run();
  ASSERT_EQ(h.client_side.packets.size(), 1u);
  EXPECT_TRUE(PayloadAs<KvResponse>(h.client_side.packets[0]).hit);
  EXPECT_EQ(h.lake.l1_hits(), 1u);
  EXPECT_TRUE(h.host_side.packets.empty());
}

TEST(LakeTest, L2HitPromotesToL1) {
  LakeHarness h;
  ASSERT_NE(h.lake.l2(), nullptr);
  h.lake.l2()->Set(9, 32);
  h.fpga.Receive(h.Get(9));
  h.sim.Run();
  EXPECT_EQ(h.lake.l2_hits(), 1u);
  EXPECT_TRUE(h.lake.l1().Contains(9));
  // Second access hits L1.
  h.fpga.Receive(h.Get(9, 2));
  h.sim.Run();
  EXPECT_EQ(h.lake.l1_hits(), 1u);
}

TEST(LakeTest, MissForwardsToHost) {
  LakeHarness h;
  h.fpga.Receive(h.Get(42));
  h.sim.Run();
  EXPECT_EQ(h.lake.misses_to_host(), 1u);
  EXPECT_EQ(h.host_side.packets.size(), 1u);
  EXPECT_TRUE(h.client_side.packets.empty());
}

TEST(LakeTest, HostReplyFillsCaches) {
  LakeHarness h;
  // Host reply (GET hit) passes through the NIC on its way out.
  Packet reply =
      MakeKvResponsePacket(1, 100, KvResponse{KvOp::kGet, 13, true, 64}, 1, 0);
  h.fpga.Receive(reply);
  h.sim.Run();
  EXPECT_TRUE(h.lake.l1().Contains(13));
  EXPECT_TRUE(h.lake.l2()->Contains(13));
  ASSERT_EQ(h.client_side.packets.size(), 1u);  // Still delivered.
  // Subsequent GET is a hardware hit.
  h.fpga.Receive(h.Get(13, 2));
  h.sim.Run();
  EXPECT_EQ(h.lake.l1_hits(), 1u);
}

TEST(LakeTest, MissReplyDoesNotFill) {
  LakeHarness h;
  Packet reply =
      MakeKvResponsePacket(1, 100, KvResponse{KvOp::kGet, 13, false, 0}, 1, 0);
  h.fpga.Receive(reply);
  h.sim.Run();
  EXPECT_FALSE(h.lake.l1().Contains(13));
}

TEST(LakeTest, SetWritesThroughAndForwards) {
  LakeHarness h;
  h.fpga.Receive(h.Set(21, 64));
  h.sim.Run();
  EXPECT_TRUE(h.lake.l1().Contains(21));
  EXPECT_TRUE(h.lake.l2()->Contains(21));
  EXPECT_EQ(h.host_side.packets.size(), 1u);  // Host stays authoritative.
}

TEST(LakeTest, DeleteRemovesFromBothLevels) {
  LakeHarness h;
  h.lake.l1().Set(5, 1);
  h.lake.l2()->Set(5, 1);
  Packet del = MakeKvRequestPacket(100, 1, KvRequest{KvOp::kDelete, 5, 0}, 1, 0);
  h.fpga.Receive(del);
  h.sim.Run();
  EXPECT_FALSE(h.lake.l1().Contains(5));
  EXPECT_FALSE(h.lake.l2()->Contains(5));
}

TEST(LakeTest, MemoryResetColdCaches) {
  LakeHarness h;
  h.lake.WarmFill(0, 10, 64);
  EXPECT_GT(h.lake.l1().size(), 0u);
  h.fpga.SetAppActive(false);
  h.fpga.SetMemoryReset(true);
  EXPECT_EQ(h.lake.l1().size(), 0u);
  EXPECT_EQ(h.lake.l2()->size(), 0u);
}

TEST(LakeTest, NoDramMeansNoL2) {
  LakeConfig config = LakeHarness::SmallLakeConfig();
  config.use_dram = false;
  LakeHarness h(config);
  EXPECT_EQ(h.lake.l2(), nullptr);
  h.fpga.Receive(h.Get(3));
  h.sim.Run();
  EXPECT_EQ(h.lake.misses_to_host(), 1u);
}

TEST(LakeTest, PowerModulesReflectConfiguration) {
  LakeConfig full;
  LakeCache lake_full(full);
  double watts = 0;
  for (const auto& m : lake_full.PowerModules()) {
    watts += m.active_watts;
  }
  // classifier 0.95 + 5 x 0.25 + 4.8 + 6 = 13.0 (logic 2.2 W over the NIC,
  // memories 10.8 W; §5.2-5.3).
  EXPECT_NEAR(watts, 13.0, 1e-9);

  LakeConfig lean;
  lean.num_pes = 1;
  lean.use_dram = false;
  lean.use_sram = false;
  LakeCache lake_lean(lean);
  watts = 0;
  for (const auto& m : lake_lean.PowerModules()) {
    watts += m.active_watts;
  }
  EXPECT_NEAR(watts, 1.2, 1e-9);
}

TEST(LakeTest, HardwareHitRatio) {
  LakeHarness h;
  h.lake.l1().Set(1, 1);
  h.fpga.Receive(h.Get(1, 1));
  h.fpga.Receive(h.Get(2, 2));
  h.sim.Run();
  EXPECT_DOUBLE_EQ(h.lake.HardwareHitRatio(), 0.5);
}

TEST(LakeTest, RejectsZeroPes) {
  LakeConfig config;
  config.num_pes = 0;
  EXPECT_THROW(LakeCache{config}, std::invalid_argument);
}

// PE scaling property (§5.2): each PE adds ~3.3 Mqps of capacity.
class LakePeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(LakePeSweepTest, CapacityScalesWithPes) {
  const int pes = GetParam();
  LakeConfig config;
  config.num_pes = pes;
  config.l1_entries = 16;
  // A 100G egress so reply serialization never caps the PE pipeline (the
  // property under test is PE scaling, not the 10GE line rate).
  LakeHarness h(config, /*with_host=*/true, /*link_gbps=*/100.0);
  h.lake.WarmFill(0, 8, 64);
  // Offer 2x the nominal capacity for 10 ms and count hardware responses.
  const double capacity = pes * 3.3e6;
  const double offered = 2.0 * capacity;
  const auto gap = static_cast<SimDuration>(1e9 / offered);
  const int n = static_cast<int>(offered * 0.01);
  for (int i = 0; i < n; ++i) {
    h.sim.Schedule(i * gap, [&h, i] { h.fpga.Receive(h.Get(i % 8, i + 1)); });
  }
  h.sim.RunUntil(Milliseconds(12));
  const double served = static_cast<double>(h.client_side.packets.size());
  const double served_rate = served / 0.012;
  EXPECT_GT(served_rate, 0.75 * capacity);
  EXPECT_LT(served_rate, 1.25 * capacity);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, LakePeSweepTest, ::testing::Values(1, 2, 5));

}  // namespace
}  // namespace incod
