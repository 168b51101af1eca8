// Bounded key-value store with LRU eviction.
//
// The same store logic backs the software memcached model, both levels of
// LaKe's layered cache and the NetCache switch cache, so shifting a workload
// between host and network preserves semantics (a requirement of on-demand
// shifting, §9).
//
// Layout: one slab of 24-byte nodes {key, value_bytes, prev, next}, kept
// dense (slab id < size()), with the LRU list threaded through it by slab
// id, and a power-of-two linear-probing index of slab ids (multiplicative
// hash, load factor at most 1/2, backward-shift deletion, no tombstones).
// An eviction reuses the victim's node and Delete() moves the last node into
// the hole, so Get/Set at capacity allocate nothing. The slab and index grow
// with size(), never pre-sized to capacity(); Clear() keeps both
// allocations, so refilling a cleared store allocates nothing either.
#ifndef INCOD_SRC_KVS_KV_STORE_H_
#define INCOD_SRC_KVS_KV_STORE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/stats/counters.h"

namespace incod {

// One resident entry, as snapshots carry it.
struct KvEntry {
  uint64_t key = 0;
  uint32_t value_bytes = 0;
};

class KvStore {
 public:
  // capacity_entries: maximum number of resident keys (0 is invalid).
  explicit KvStore(size_t capacity_entries);

  // Returns true and writes the stored value size on hit; promotes the entry
  // to most-recently-used.
  bool Get(uint64_t key, uint32_t* value_bytes);

  // Inserts or updates; evicts the least-recently-used entry when full.
  void Set(uint64_t key, uint32_t value_bytes);

  // Returns true if the key existed.
  bool Delete(uint64_t key);

  bool Contains(uint64_t key) const { return index_[Probe(key)] != kNil; }

  void Clear();

  // State-transfer support (the App snapshot contract): entries in least-
  // to most-recently-used order, so replaying them through Set() rebuilds
  // the exact LRU order. RestoreLru clears first, then replays `bulk` and
  // then `hot` (so hot entries land most-recently-used and win on duplicate
  // keys), sizing the slab and index once; restoring into a smaller store
  // evicts the coldest entries, as a real transfer would.
  std::vector<KvEntry> SnapshotLru() const;
  void RestoreLru(std::span<const KvEntry> bulk, std::span<const KvEntry> hot = {});

  size_t size() const { return slab_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_.value(); }
  const RatioCounter& lookup_stats() const { return lookups_; }
  void ResetStats() { lookups_.Reset(); evictions_.Reset(); }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Node {
    uint64_t key;
    uint32_t value_bytes;
    uint32_t prev;  // Toward most recently used; kNil at head_.
    uint32_t next;  // Toward least recently used; kNil at tail_.
  };
  static_assert(sizeof(Node) == 24);

  // Index slot holding `key`, or the empty slot where it would go.
  size_t Probe(uint64_t key) const;
  size_t Home(uint64_t key) const;
  // Empties index slot `slot`, shifting later entries of its probe chain
  // back so no lookup runs past a hole.
  void EraseSlot(size_t slot);
  // Rebuilds the index with `slots` (a power of two) slots.
  void Rehash(size_t slots);
  void Unlink(uint32_t id);
  void PushFront(uint32_t id);

  size_t capacity_;
  std::vector<Node> slab_;
  std::vector<uint32_t> index_;  // Slab ids; kNil marks an empty slot.
  int shift_;                    // 64 - log2(index_.size()).
  uint32_t head_ = kNil;         // Most recently used.
  uint32_t tail_ = kNil;         // Least recently used.
  RatioCounter lookups_;
  Counter evictions_;
};

}  // namespace incod

#endif  // INCOD_SRC_KVS_KV_STORE_H_
