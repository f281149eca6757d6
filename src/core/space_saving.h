// Space-Saving stream sampling (Metwally, Agrawal, El Abbadi — ICDT 2005),
// backed by the classic Stream-Summary structure from the same paper.
//
// Each server applies this to its stream of observed communication edges to
// maintain a constant-size list of the heaviest edges (§4.3 of the paper):
// light edges never influence partitioning because only small candidate sets
// are exchanged, so only the top-k weights need to be tracked.
//
// Guarantees (classic Space-Saving): with capacity m after N observations,
// every key with true count > N/m is present, and every reported count
// over-estimates the true count by at most its recorded `error` <= N/m.
//
// Structure: each tracked key owns an index-stable slot. A FlatHashMap maps
// key -> slot; the slot's 16-byte chain node (`nodes_`) links it into the
// per-count bucket holding its count, and its key and error sit in parallel
// arrays that Observe reads only on eviction. The buckets form an intrusive
// doubly-linked list ordered by ascending count (`min_bucket_` is the head),
// and a key's count is its bucket's. A unit increment moves a node at most
// one bucket forward and min-eviction pops the tail of the head bucket, so
// Observe is O(1) for unit increments (O(#distinct-counts-skipped) for
// weighted ones) and allocation-free once the slabs are warm. Decay() halves
// counts in one pass over the bucket chain — monotone halving keeps it
// sorted — instead of the seed's full std::map rebuild.
//
// Callers that keep their own index over the tracked keys (the partition
// agent's sorted plan-graph input) use the slot view: Observe returns the
// slot a key was newly placed in, and SlotLive/SlotKey/SlotCount read a slot.
// A slot changes key only through such a return, or is freed by Decay, so a
// caller can track what changed without rescanning the sketch.
//
// Decision compatibility with the seed implementation is load-bearing for
// deterministic replay: the seed kept each bucket as a vector, attached with
// push_back, detached with swap-remove (vec[i] = vec.back(); pop_back()) and
// evicted vec.back() of the minimum bucket. The intrusive list reproduces
// that order exactly — Attach appends at the tail, Detach pops the tail and,
// if the popped node isn't the one being detached, splices it into the
// detached node's former position, and the eviction victim is the tail of
// the minimum bucket. tests/core/space_saving_fuzz_test.cc pins this down
// with per-operation digests against goldens from the seed binary and
// differentially against oracles/space_saving_reference.h (test/bench-only).

#ifndef SRC_CORE_SPACE_SAVING_H_
#define SRC_CORE_SPACE_SAVING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/flat_hash_map.h"

namespace actop {

template <typename Key, typename Hash = std::hash<Key>>
class SpaceSaving {
 public:
  struct Entry {
    Key key;
    uint64_t count = 0;  // estimated count (upper bound on the true count)
    uint64_t error = 0;  // max over-estimation carried from the evicted key
  };

  // Returned by Observe when the key was already tracked.
  static constexpr int32_t kNoSlot = -1;

  explicit SpaceSaving(size_t capacity) : capacity_(capacity) { ACTOP_CHECK(capacity >= 1); }

  // Observes `key` with the given increment (e.g. message count or bytes).
  // Returns the slot the key was newly placed in (a fresh slot or an evicted
  // key's), or kNoSlot if the key was already tracked.
  int32_t Observe(const Key& key, uint64_t increment = 1) {
    total_ += increment;
    if (const int32_t* slot = index_.Find(key)) {
      const int32_t n = *slot;
      const int32_t bucket = nodes_[n].bucket;
      const uint64_t target = buckets_[bucket].count + increment;
      // Detach may free the node's bucket; remember its predecessor so the
      // relink search can still start from the node's old position.
      const int32_t bucket_prev = buckets_[bucket].prev;
      const bool emptied = Detach(n);
      Place(n, target, emptied ? bucket_prev : bucket);
      return kNoSlot;
    }
    if (size_ < capacity_) {
      const int32_t n = AllocNode();
      keys_[n] = key;
      errors_[n] = 0;
      Place(n, increment, kNil);
      index_.Insert(key, n);
      size_++;
      return n;
    }
    // Evict the minimum-count key and inherit its count as error. The victim
    // is the tail of the minimum bucket (the seed's min_bucket->second.back()).
    ACTOP_DCHECK(min_bucket_ != kNil);
    const int32_t mb = min_bucket_;
    const uint64_t min_count = buckets_[mb].count;
    const int32_t victim = buckets_[mb].tail;
    const bool emptied = Detach(victim);
    index_.Erase(keys_[victim]);
    keys_[victim] = key;
    errors_[victim] = min_count;
    Place(victim, min_count + increment, emptied ? kNil : mb);
    index_.Insert(key, victim);
    return victim;
  }

  // Warm the cache for a coming Observe(key), in two steps issued a few
  // observations apart: PrefetchIndex pulls in the key's hash slot, and
  // PrefetchNode, once that slot has landed, the chain node it names.
  // Neither changes any state.
  void PrefetchIndex(const Key& key) const { index_.Prefetch(key); }
  void PrefetchNode(const Key& key) const {
    if (const int32_t* slot = index_.Find(key)) {
      __builtin_prefetch(&nodes_[static_cast<size_t>(*slot)]);
    }
  }

  // Slot-level view for callers that keep their own index over the tracked
  // keys. A key keeps its slot for as long as it stays tracked. A slot
  // changes key only through Observe, which returns it, and loses its key
  // without a successor only to Decay or Clear, after which SlotLive is
  // false.
  bool SlotLive(int32_t slot) const {
    return static_cast<size_t>(slot) < nodes_.size() &&
           nodes_[static_cast<size_t>(slot)].bucket != kNil;
  }
  // Key and estimated count of a live slot.
  const Key& SlotKey(int32_t slot) const { return keys_[static_cast<size_t>(slot)]; }
  uint64_t SlotCount(int32_t slot) const {
    return buckets_[static_cast<size_t>(nodes_[static_cast<size_t>(slot)].bucket)].count;
  }

  // All tracked entries. Size <= capacity. Order is unspecified (currently
  // ascending count with arbitrary tie order) — use SortedEntries() when a
  // deterministic ranking is needed.
  std::vector<Entry> Entries() const {
    std::vector<Entry> out;
    out.reserve(size_);
    for (int32_t b = min_bucket_; b != kNil; b = buckets_[b].next) {
      for (int32_t n = buckets_[b].head; n != kNil; n = nodes_[n].next) {
        out.push_back(Entry{keys_[n], buckets_[b].count, errors_[n]});
      }
    }
    return out;
  }

  // Entries ranked heaviest-first: count descending, key ascending on ties.
  // Only instantiable for Keys with operator< (ids in this codebase).
  std::vector<Entry> SortedEntries() const {
    std::vector<Entry> out = Entries();
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.count != b.count) return a.count > b.count;
      return a.key < b.key;
    });
    return out;
  }

  // Estimated count for a key (0 if not tracked).
  uint64_t EstimateCount(const Key& key) const {
    const int32_t* slot = index_.Find(key);
    return slot == nullptr ? 0 : SlotCount(*slot);
  }

  bool Contains(const Key& key) const { return index_.Find(key) != nullptr; }

  // Total of all observed increments (N).
  uint64_t total_observed() const { return total_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  // Halves every counter (and error), dropping keys that reach zero. Called
  // periodically so that stale edges of a changing communication graph decay
  // instead of occupying capacity forever. One pass over the bucket chain in
  // ascending-count order: since halving is monotone, each bucket either
  // keeps its place with half the count, or joins the bucket before it when
  // both halve to the same count (its nodes appended in order), or empties
  // when its count halves to zero — no searching, no tree.
  void Decay() {
    total_ /= 2;
    int32_t b = min_bucket_;
    min_bucket_ = kNil;
    int32_t tail_bucket = kNil;  // last bucket of the rebuilt chain
    while (b != kNil) {
      const int32_t next_bucket = buckets_[b].next;
      const uint64_t half = buckets_[b].count / 2;
      const bool merge = tail_bucket != kNil && buckets_[tail_bucket].count == half;
      for (int32_t n = buckets_[b].head; n != kNil;) {
        const int32_t next = nodes_[n].next;
        errors_[n] /= 2;
        if (half == 0) {
          index_.Erase(keys_[n]);
          nodes_[n].bucket = kNil;  // marks the slot free for SlotLive
          free_nodes_.push_back(n);
          size_--;
        } else if (merge) {
          Append(tail_bucket, n);
        }
        n = next;
      }
      if (half == 0 || merge) {
        free_buckets_.push_back(b);
      } else {
        ACTOP_DCHECK(tail_bucket == kNil || buckets_[tail_bucket].count < half);
        Bucket& bk = buckets_[b];
        bk.count = half;
        bk.prev = tail_bucket;
        bk.next = kNil;
        if (tail_bucket == kNil) {
          min_bucket_ = b;
        } else {
          buckets_[tail_bucket].next = b;
        }
        tail_bucket = b;
      }
      b = next_bucket;
    }
  }

  void Clear() {
    nodes_.clear();
    keys_.clear();
    errors_.clear();
    free_nodes_.clear();
    buckets_.clear();
    free_buckets_.clear();
    min_bucket_ = kNil;
    index_.Clear();
    total_ = 0;
    size_ = 0;
  }

 private:
  static constexpr int32_t kNil = -1;

  // A slot's chain links, the only per-key state Observe touches besides the
  // hash index; its key and error sit in parallel cold arrays, and its count
  // is its bucket's. 16 bytes, so a node never straddles a cache line.
  struct alignas(16) Node {
    int32_t prev = kNil;  // within-bucket chain; head..tail mirrors the
    int32_t next = kNil;  // seed's bucket vector order (tail == back()).
    int32_t bucket = kNil;
  };

  struct Bucket {
    uint64_t count = 0;
    int32_t head = kNil;
    int32_t tail = kNil;
    int32_t prev = kNil;  // bucket chain, ascending count;
    int32_t next = kNil;  // min_bucket_ is the head.
  };

  int32_t AllocNode() {
    if (!free_nodes_.empty()) {
      const int32_t n = free_nodes_.back();
      free_nodes_.pop_back();
      return n;
    }
    nodes_.emplace_back();
    keys_.emplace_back();
    errors_.emplace_back();
    return static_cast<int32_t>(nodes_.size()) - 1;
  }

  int32_t AllocBucket(uint64_t count, int32_t prev, int32_t next) {
    int32_t b;
    if (!free_buckets_.empty()) {
      b = free_buckets_.back();
      free_buckets_.pop_back();
    } else {
      buckets_.emplace_back();
      b = static_cast<int32_t>(buckets_.size()) - 1;
    }
    Bucket& bk = buckets_[b];
    bk.count = count;
    bk.head = bk.tail = kNil;
    bk.prev = prev;
    bk.next = next;
    if (prev != kNil) {
      buckets_[prev].next = b;
    } else {
      min_bucket_ = b;
    }
    if (next != kNil) {
      buckets_[next].prev = b;
    }
    return b;
  }

  void FreeBucket(int32_t b) {
    Bucket& bk = buckets_[b];
    if (bk.prev != kNil) {
      buckets_[bk.prev].next = bk.next;
    } else {
      min_bucket_ = bk.next;
    }
    if (bk.next != kNil) {
      buckets_[bk.next].prev = bk.prev;
    }
    free_buckets_.push_back(b);
  }

  // Seed Attach == push_back: append at the bucket tail.
  void Append(int32_t b, int32_t n) {
    Node& node = nodes_[n];
    node.bucket = b;
    node.next = kNil;
    node.prev = buckets_[b].tail;
    if (node.prev != kNil) {
      nodes_[node.prev].next = n;
    } else {
      buckets_[b].head = n;
    }
    buckets_[b].tail = n;
  }

  // Seed Detach == swap-remove (vec[i] = vec.back(); pop_back()): pop the
  // bucket's tail, and if that wasn't `n`, splice it into n's old position.
  // Frees the bucket if it empties; returns whether it did.
  bool Detach(int32_t n) {
    const int32_t b = nodes_[n].bucket;
    Bucket& bk = buckets_[b];
    const int32_t tail = bk.tail;
    const int32_t tail_prev = nodes_[tail].prev;
    bk.tail = tail_prev;
    if (tail_prev != kNil) {
      nodes_[tail_prev].next = kNil;
    } else {
      bk.head = kNil;
    }
    if (tail != n) {
      // nodes_[n].next was just nulled if the tail sat directly after n.
      const int32_t np = nodes_[n].prev;
      const int32_t nn = nodes_[n].next;
      nodes_[tail].prev = np;
      nodes_[tail].next = nn;
      if (np != kNil) {
        nodes_[np].next = tail;
      } else {
        bk.head = tail;
      }
      if (nn != kNil) {
        nodes_[nn].prev = tail;
      } else {
        bk.tail = tail;
      }
    }
    if (bk.head == kNil) {
      FreeBucket(b);
      return true;
    }
    return false;
  }

  // Appends node `n` (already detached) to the bucket holding count
  // `target`, creating the bucket if missing. The search walks the chain
  // forward from `pred` (kNil = from min_bucket_); for unit increments from
  // the node's old bucket this is at most one step. `pred` itself holds the
  // target count after a zero increment, and then takes the node back.
  void Place(int32_t n, uint64_t target, int32_t pred) {
    if (pred != kNil && buckets_[pred].count == target) {
      Append(pred, n);
      return;
    }
    int32_t succ = pred == kNil ? min_bucket_ : buckets_[pred].next;
    while (succ != kNil && buckets_[succ].count < target) {
      pred = succ;
      succ = buckets_[succ].next;
    }
    const int32_t b = (succ != kNil && buckets_[succ].count == target)
                          ? succ
                          : AllocBucket(target, pred, succ);
    Append(b, n);
  }

  size_t capacity_;
  size_t size_ = 0;
  uint64_t total_ = 0;
  std::vector<Node> nodes_;          // slab; grows lazily up to capacity_
  std::vector<Key> keys_;            // per slot, parallel to nodes_
  std::vector<uint64_t> errors_;     // per slot, parallel to nodes_
  std::vector<int32_t> free_nodes_;  // slots freed by Decay
  std::vector<Bucket> buckets_;
  std::vector<int32_t> free_buckets_;
  int32_t min_bucket_ = kNil;
  FlatHashMap<Key, int32_t, Hash> index_;
};

}  // namespace actop

#endif  // SRC_CORE_SPACE_SAVING_H_
