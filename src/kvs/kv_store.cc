#include "src/kvs/kv_store.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace incod {

namespace {

constexpr size_t kMinIndexSlots = 8;

}  // namespace

KvStore::KvStore(size_t capacity_entries)
    : capacity_(capacity_entries),
      index_(kMinIndexSlots, kNil),
      shift_(64 - std::countr_zero(kMinIndexSlots)) {
  if (capacity_entries == 0) {
    throw std::invalid_argument("KvStore: capacity must be > 0");
  }
  if (capacity_entries >= kNil) {
    throw std::invalid_argument("KvStore: capacity must fit 32-bit slab ids");
  }
}

size_t KvStore::Home(uint64_t key) const {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

size_t KvStore::Probe(uint64_t key) const {
  const size_t mask = index_.size() - 1;
  size_t slot = Home(key);
  while (index_[slot] != kNil && slab_[index_[slot]].key != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void KvStore::EraseSlot(size_t slot) {
  const size_t mask = index_.size() - 1;
  size_t hole = slot;
  for (size_t j = (hole + 1) & mask; index_[j] != kNil; j = (j + 1) & mask) {
    // The entry at j may fill the hole unless its home lies in (hole, j].
    const size_t home = Home(slab_[index_[j]].key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = kNil;
}

void KvStore::Rehash(size_t slots) {
  index_.assign(slots, kNil);
  shift_ = 64 - std::countr_zero(slots);
  for (uint32_t id = 0; id < slab_.size(); ++id) {
    index_[Probe(slab_[id].key)] = id;
  }
}

void KvStore::Unlink(uint32_t id) {
  const Node& node = slab_[id];
  (node.prev != kNil ? slab_[node.prev].next : head_) = node.next;
  (node.next != kNil ? slab_[node.next].prev : tail_) = node.prev;
}

void KvStore::PushFront(uint32_t id) {
  slab_[id].prev = kNil;
  slab_[id].next = head_;
  (head_ != kNil ? slab_[head_].prev : tail_) = id;
  head_ = id;
}

bool KvStore::Get(uint64_t key, uint32_t* value_bytes) {
  const uint32_t id = index_[Probe(key)];
  if (id == kNil) {
    lookups_.Miss();
    return false;
  }
  lookups_.Hit();
  if (id != head_) {
    Unlink(id);
    PushFront(id);
  }
  if (value_bytes != nullptr) {
    *value_bytes = slab_[id].value_bytes;
  }
  return true;
}

void KvStore::Set(uint64_t key, uint32_t value_bytes) {
  size_t slot = Probe(key);
  uint32_t id = index_[slot];
  if (id != kNil) {
    slab_[id].value_bytes = value_bytes;
    if (id != head_) {
      Unlink(id);
      PushFront(id);
    }
    return;
  }
  if (slab_.size() >= capacity_) {
    // Reuse the least-recently-used node for the new key.
    id = tail_;
    EraseSlot(Probe(slab_[id].key));
    Unlink(id);
    evictions_.Increment();
    slot = Probe(key);  // The erase may have shifted the new key's chain.
  } else {
    if (2 * (slab_.size() + 1) > index_.size()) {
      Rehash(2 * index_.size());
      slot = Probe(key);
    }
    id = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[id].key = key;
  slab_[id].value_bytes = value_bytes;
  PushFront(id);
  index_[slot] = id;
}

bool KvStore::Delete(uint64_t key) {
  const size_t slot = Probe(key);
  const uint32_t id = index_[slot];
  if (id == kNil) {
    return false;
  }
  EraseSlot(slot);
  Unlink(id);
  // Keep the slab dense: move the last node into the freed one.
  const uint32_t last = static_cast<uint32_t>(slab_.size() - 1);
  if (id != last) {
    index_[Probe(slab_[last].key)] = id;
    slab_[id] = slab_[last];
    const Node& moved = slab_[id];
    (moved.prev != kNil ? slab_[moved.prev].next : head_) = id;
    (moved.next != kNil ? slab_[moved.next].prev : tail_) = id;
  }
  slab_.pop_back();
  return true;
}

void KvStore::Clear() {
  slab_.clear();
  std::fill(index_.begin(), index_.end(), kNil);
  head_ = kNil;
  tail_ = kNil;
}

std::vector<KvEntry> KvStore::SnapshotLru() const {
  std::vector<KvEntry> entries;
  entries.reserve(slab_.size());
  // Emit coldest first.
  for (uint32_t id = tail_; id != kNil; id = slab_[id].prev) {
    entries.push_back(KvEntry{slab_[id].key, slab_[id].value_bytes});
  }
  return entries;
}

void KvStore::RestoreLru(std::span<const KvEntry> bulk, std::span<const KvEntry> hot) {
  Clear();
  const size_t resident = std::min(capacity_, bulk.size() + hot.size());
  slab_.reserve(resident);
  const size_t slots = std::max(index_.size(), std::bit_ceil(2 * resident));
  if (slots != index_.size()) {
    Rehash(slots);
  }
  for (const KvEntry& e : bulk) {
    Set(e.key, e.value_bytes);
  }
  for (const KvEntry& e : hot) {
    Set(e.key, e.value_bytes);
  }
}

}  // namespace incod
