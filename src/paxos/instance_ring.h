// Per-instance records for a sliding window of Paxos instances.
//
// The acceptor's vote log and the learner's undelivered instances both live
// in a window [base, base + capacity): a power-of-two ring indexed by
// `instance & (capacity - 1)`. Everything below the base has been dropped
// (trimmed or delivered). An instance past the window's end doubles the
// ring, so a window of steady size allocates nothing per instance, unlike a
// map node per instance. Each instance owns `width` consecutive records.
#ifndef INCOD_SRC_PAXOS_INSTANCE_RING_H_
#define INCOD_SRC_PAXOS_INSTANCE_RING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace incod {

template <typename T>
class InstanceRing {
 public:
  explicit InstanceRing(size_t width = 1) : width_(width) {}

  uint32_t base() const { return base_; }
  size_t capacity() const { return present_.size(); }
  // Instances holding records.
  size_t size() const { return size_; }

  // The records of `instance`, or null when it holds none.
  T* Find(uint32_t instance) {
    if (instance < base_ || instance - base_ >= capacity() || !present_[Index(instance)]) {
      return nullptr;
    }
    return &records_[Index(instance) * width_];
  }
  const T* Find(uint32_t instance) const {
    return const_cast<InstanceRing*>(this)->Find(instance);
  }

  // The records of `instance` (value-initialised on first use), or null
  // when the instance lies below the base.
  T* Get(uint32_t instance) {
    if (instance < base_) {
      return nullptr;
    }
    if (instance - base_ >= capacity()) {
      Grow(static_cast<size_t>(instance - base_) + 1);
    }
    const size_t i = Index(instance);
    if (!present_[i]) {
      present_[i] = 1;
      ++size_;
    }
    return &records_[i * width_];
  }

  // Drops every instance below `new_base` and moves the window there.
  void DropBelow(uint32_t new_base) {
    if (new_base <= base_) {
      return;
    }
    const size_t span = std::min<size_t>(new_base - base_, capacity());
    for (size_t k = 0; k < span; ++k) {
      const size_t i = Index(base_ + static_cast<uint32_t>(k));
      if (present_[i]) {
        present_[i] = 0;
        --size_;
        std::fill_n(records_.begin() + static_cast<std::ptrdiff_t>(i * width_), width_, T{});
      }
    }
    base_ = new_base;
  }

 private:
  size_t Index(uint32_t instance) const { return instance & (capacity() - 1); }

  void Grow(size_t needed) {
    size_t cap = std::max<size_t>(capacity(), 16);
    while (cap < needed) {
      cap *= 2;
    }
    std::vector<T> records(cap * width_);
    std::vector<uint8_t> present(cap, 0);
    for (size_t k = 0; k < capacity(); ++k) {
      const uint32_t instance = base_ + static_cast<uint32_t>(k);
      const size_t from = Index(instance);
      if (present_[from]) {
        const size_t to = instance & (cap - 1);
        present[to] = 1;
        std::copy_n(records_.begin() + static_cast<std::ptrdiff_t>(from * width_), width_,
                    records.begin() + static_cast<std::ptrdiff_t>(to * width_));
      }
    }
    records_.swap(records);
    present_.swap(present);
  }

  size_t width_;
  uint32_t base_ = 0;
  size_t size_ = 0;
  std::vector<T> records_;
  std::vector<uint8_t> present_;
};

}  // namespace incod

#endif  // INCOD_SRC_PAXOS_INSTANCE_RING_H_
