// Open-addressing hash map for integer-keyed hot-path lookups.
//
// std::unordered_map pays a heap node per entry and a pointer chase per
// lookup; on the messaging hot path (location-cache probes on every routed
// call) that is measurable. FlatHashMap stores key/value pairs in one flat
// power-of-two array with linear probing, and erases with backward shifting
// instead of tombstones, so probe chains never degrade as entries churn.
//
// Scope is deliberately narrow — exactly what the runtime's caches need:
//   * Key must be trivially copyable (ids everywhere in this codebase);
//     Value is any movable type.
//   * No iterators; use Find/Insert/Erase. (Iteration order of an open
//     table is a function of the hash seed and resize history — nothing in
//     deterministic-replay code should ever observe it.)
//   * Not a drop-in for std::unordered_map where iteration order is
//     load-bearing — use SlabMap (src/common/slab_map.h), which pairs it
//     with a dense slab walked in slot order.

#ifndef SRC_COMMON_FLAT_HASH_MAP_H_
#define SRC_COMMON_FLAT_HASH_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace actop {

// Default hasher: SplitMix64 finalizer — cheap and strong enough to make
// linear probing behave with sequential ids (the common ActorId pattern).
struct FlatHashU64 {
  size_t operator()(uint64_t x) const {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

template <typename Key, typename Value, typename Hash = FlatHashU64>
class FlatHashMap {
 public:
  FlatHashMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Ensures capacity for `n` entries without rehashing.
  void Reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 3 / 4 < n) cap *= 2;
    if (cap > slots_.size()) Rehash(cap);
  }

  Value* Find(const Key& key) {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash{}(key)&mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (!s.full) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  const Value* Find(const Key& key) const { return const_cast<FlatHashMap*>(this)->Find(key); }

  // Pulls the first slot `key` probes into the cache ahead of a lookup.
  void Prefetch(const Key& key) const {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[Hash{}(key) & (slots_.size() - 1)]);
    }
  }

  // Inserts or overwrites. Returns true if the key was newly inserted.
  bool Insert(const Key& key, Value value) {
    if (slots_.empty() || size_ + 1 > slots_.size() * 3 / 4) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash{}(key)&mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (!s.full) {
        s.key = key;
        s.value = std::move(value);
        s.full = true;
        size_++;
        return true;
      }
      if (s.key == key) {
        s.value = std::move(value);
        return false;
      }
    }
  }

  // Removes `key` if present, backward-shifting the probe chain so lookups
  // never cross tombstones. Returns true if an entry was removed.
  bool Erase(const Key& key) {
    if (slots_.empty()) return false;
    const size_t mask = slots_.size() - 1;
    size_t i = Hash{}(key)&mask;
    for (;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (!s.full) return false;
      if (s.key == key) break;
    }
    // Shift later chain members back into the hole.
    size_t hole = i;
    for (size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
      Slot& s = slots_[j];
      if (!s.full) break;
      const size_t ideal = Hash{}(s.key)&mask;
      // Move s back only if its ideal position does not lie cyclically in
      // (hole, j] — i.e. probing for s.key would have visited `hole`.
      const bool reachable_from_hole =
          hole <= j ? (ideal <= hole || ideal > j) : (ideal <= hole && ideal > j);
      if (reachable_from_hole) {
        slots_[hole].key = s.key;
        slots_[hole].value = std::move(s.value);
        slots_[hole].full = true;
        s.full = false;
        s.value = Value();
        hole = j;
      }
    }
    slots_[hole].full = false;
    slots_[hole].value = Value();
    size_--;
    return true;
  }

  // Empties the map but keeps the slot array (like unordered_map::clear
  // keeping its buckets): a cleared-and-refilled map of similar cardinality
  // never rehashes, so Clear/refill cycles are allocation-free in steady
  // state — the arena's per-round exchange heaps depend on that.
  void Clear() {
    for (Slot& s : slots_) {
      s.full = false;
      s.value = Value();
    }
    size_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    Key key{};
    Value value{};
    bool full = false;
  };

  void Rehash(size_t new_capacity) {
    ACTOP_CHECK((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    // resize (default-insert) rather than assign (copy-fill): Value may be
    // move-only (e.g. a PendingCall holding an InlineFunction continuation).
    slots_.clear();
    slots_.resize(new_capacity);
    const size_t mask = new_capacity - 1;
    for (Slot& s : old) {
      if (!s.full) continue;
      size_t i = Hash{}(s.key)&mask;
      while (slots_[i].full) i = (i + 1) & mask;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      slots_[i].full = true;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace actop

#endif  // SRC_COMMON_FLAT_HASH_MAP_H_
