// Keyed slab: the runtime's one design for keyed records that are walked.
//
// Values live in a Slab (src/common/slab.h): index-stable slots recycled in
// LIFO order. A FlatHashMap maps each key to its slot index. Three
// properties follow from the layout, and the runtime relies on each:
//   * ForEach and EraseIf visit live slots in slot-index order, a pure
//     function of the map's insert/erase history. No walk depends on hash
//     layout, so a replay that walks a SlabMap is the same under any hasher.
//   * A recycled slot keeps its Value object: Insert hands back whatever the
//     previous occupant left there (the caller resets the fields it needs),
//     so buffers a Value owns — an activation's mailbox ring, say — are
//     reused instead of reallocated.
//   * Pointers returned by Find stay valid across Erase (slots never move)
//     and are invalidated by Insert (the slab may grow).
// Clear drops every slot and Value, resources included.

#ifndef SRC_COMMON_SLAB_MAP_H_
#define SRC_COMMON_SLAB_MAP_H_

#include <cstddef>
#include <cstdint>

#include "src/common/check.h"
#include "src/common/flat_hash_map.h"
#include "src/common/slab.h"

namespace actop {

template <typename Key, typename Value, typename Hash = FlatHashU64>
class SlabMap {
 public:
  size_t size() const { return size_; }

  bool Contains(const Key& key) const { return index_.Find(key) != nullptr; }

  Value* Find(const Key& key) {
    const uint32_t* pos = index_.Find(key);
    return pos == nullptr ? nullptr : &slots_[*pos].value;
  }
  const Value* Find(const Key& key) const { return const_cast<SlabMap*>(this)->Find(key); }

  // Inserts `key`, which must be absent, into the most recently freed slot
  // (or a new one) and returns that slot's Value as its last occupant left
  // it.
  Value& Insert(const Key& key) {
    const uint32_t pos = slots_.Alloc();
    Slot& s = slots_[pos];
    s.key = key;
    s.live = true;
    const bool fresh = index_.Insert(key, pos);
    ACTOP_CHECK(fresh);
    size_++;
    return s.value;
  }

  // Frees `key`'s slot, leaving its Value in place for the next occupant.
  // Returns false if the key is absent.
  bool Erase(const Key& key) {
    const uint32_t* pos = index_.Find(key);
    if (pos == nullptr) {
      return false;
    }
    Free(*pos);
    return true;
  }

  // Erases every entry for which pred(key, value) holds, freeing slots in
  // ascending index order. Returns how many were erased.
  template <typename Pred>
  size_t EraseIf(Pred&& pred) {
    size_t erased = 0;
    for (uint32_t i = 0; i < slots_.size(); i++) {
      if (slots_[i].live && pred(slots_[i].key, slots_[i].value)) {
        Free(i);
        erased++;
      }
    }
    return erased;
  }

  void Clear() {
    slots_.Clear();
    size_ = 0;
    index_.Clear();
  }

  // Visits every entry as fn(key, value) in slot-index order. fn must not
  // insert or erase.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (uint32_t i = 0; i < slots_.size(); i++) {
      if (slots_[i].live) {
        fn(slots_[i].key, slots_[i].value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t i = 0; i < slots_.size(); i++) {
      if (slots_[i].live) {
        fn(slots_[i].key, slots_[i].value);
      }
    }
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool live = false;
  };

  void Free(uint32_t pos) {
    Slot& s = slots_[pos];
    index_.Erase(s.key);
    s.live = false;
    slots_.Free(pos);
    size_--;
  }

  Slab<Slot> slots_;
  size_t size_ = 0;
  FlatHashMap<Key, uint32_t, Hash> index_;
};

}  // namespace actop

#endif  // SRC_COMMON_SLAB_MAP_H_
