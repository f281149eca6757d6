// Index-stable slots with LIFO reuse: the one free list behind every slab of
// parked records in the simulator (engine events and periodics, in-flight
// messages, in-service stage events, CPU jobs, outstanding calls, rosters,
// keyed-table slots, Space-Saving nodes and buckets).
//
// Alloc hands out the most recently freed slot, else a new value-initialized
// one at the end, so the index sequence is a pure function of the
// Alloc/Free history. A recycled slot comes back as its last occupant left
// it: owners reset the fields they need and keep whatever buffers, or
// generation counters, should survive reuse. Free leaves the value alone.
// References into the slab stay valid until an Alloc grows it.
//
// The free list costs 4 bytes per slot once the slab has freed one.
// Steady state allocates nothing: both vectors keep their capacity.

#ifndef SRC_COMMON_SLAB_H_
#define SRC_COMMON_SLAB_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace actop {

template <typename T>
class Slab {
 public:
  uint32_t Alloc() {
    if (!free_.empty()) {
      const uint32_t i = free_.back();
      free_.pop_back();
      return i;
    }
    // 0xFFFFFFFF stays free for owners' nil links.
    ACTOP_CHECK(slots_.size() < 0xFFFFFFFFu);
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  // Returns slot `i` for reuse; its value stays as it is.
  void Free(uint32_t i) {
    // Room for every slot made so far: the free list allocates only after
    // the slab itself grew, never in a steady state (a slab that drains
    // completely included).
    if (free_.size() == free_.capacity()) {
      free_.reserve(slots_.size());
    }
    free_.push_back(i);
  }

  T& operator[](uint32_t i) { return slots_[i]; }
  const T& operator[](uint32_t i) const { return slots_[i]; }

  // Slots made since construction or the last Clear, live and free alike.
  uint32_t size() const { return static_cast<uint32_t>(slots_.size()); }

  // Drops every slot and its value.
  void Clear() {
    slots_.clear();
    free_.clear();
  }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;  // LIFO
};

}  // namespace actop

#endif  // SRC_COMMON_SLAB_H_
