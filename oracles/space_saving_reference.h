// Retained seed implementation of SpaceSaving, kept verbatim (modulo the
// Decay note below) as the differential-fuzz and benchmark baseline for the
// Stream-Summary rewrite in space_saving.h. Do not optimize this file: its
// whole point is to preserve the original std::unordered_map +
// std::map<count, vector<Key>> structure so that the rewrite can be checked
// against it operation-by-operation (see tests/core/space_saving_fuzz_test.cc
// and bench/bench_partition.cc).
//
// One deliberate deviation: the seed's Decay() rebuilt the bucket index by
// iterating counters_ in std::unordered_map order, so the post-Decay order of
// equal-count keys inside a bucket — which breaks eviction-victim ties — was
// an artifact of libstdc++ hash-table internals, not part of the sketch's
// contract. This reference canonicalizes the rebuild to iterate the previous
// buckets count-ascending with within-bucket order preserved (exactly what an
// in-place halving relink produces, since halving is monotone). Everything
// else — counts, errors, eviction victims outside that tie, totals — is
// bit-identical to seed, which the decay-free golden digests in
// space_saving_fuzz_test.cc pin down against the true seed binary.

#ifndef ORACLES_SPACE_SAVING_REFERENCE_H_
#define ORACLES_SPACE_SAVING_REFERENCE_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"

namespace actop {

template <typename Key, typename Hash = std::hash<Key>>
class SpaceSavingReference {
 public:
  struct Entry {
    Key key;
    uint64_t count = 0;
    uint64_t error = 0;
  };

  explicit SpaceSavingReference(size_t capacity) : capacity_(capacity) {
    ACTOP_CHECK(capacity >= 1);
  }

  void Observe(const Key& key, uint64_t increment = 1) {
    total_ += increment;
    auto it = counters_.find(key);
    if (it != counters_.end()) {
      Detach(it->second.count, key);
      it->second.count += increment;
      Attach(it->second.count, key);
      return;
    }
    if (counters_.size() < capacity_) {
      counters_.emplace(key, Counter{increment, 0});
      Attach(increment, key);
      return;
    }
    auto min_bucket = buckets_.begin();
    ACTOP_CHECK(min_bucket != buckets_.end());
    const uint64_t min_count = min_bucket->first;
    const Key victim = min_bucket->second.back();
    Detach(min_count, victim);
    counters_.erase(victim);
    counters_.emplace(key, Counter{min_count + increment, min_count});
    Attach(min_count + increment, key);
  }

  std::vector<Entry> Entries() const {
    std::vector<Entry> out;
    out.reserve(counters_.size());
    for (const auto& [key, counter] : counters_) {
      out.push_back(Entry{key, counter.count, counter.error});
    }
    return out;
  }

  uint64_t EstimateCount(const Key& key) const {
    auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second.count;
  }

  bool Contains(const Key& key) const { return counters_.contains(key); }

  uint64_t total_observed() const { return total_; }
  size_t size() const { return counters_.size(); }
  size_t capacity() const { return capacity_; }

  // Halves every counter (and error), dropping keys that reach zero. Rebuild
  // order is canonicalized count-ascending (see file comment).
  void Decay() {
    std::map<uint64_t, std::vector<Key>> old_buckets;
    old_buckets.swap(buckets_);
    total_ /= 2;
    for (const auto& [count, keys] : old_buckets) {
      for (const Key& key : keys) {
        auto it = counters_.find(key);
        ACTOP_CHECK(it != counters_.end());
        it->second.count /= 2;
        it->second.error /= 2;
        if (it->second.count == 0) {
          counters_.erase(it);
        } else {
          Attach(it->second.count, key);
        }
      }
    }
  }

  void Clear() {
    counters_.clear();
    buckets_.clear();
    total_ = 0;
  }

 private:
  struct Counter {
    uint64_t count;
    uint64_t error;
  };

  void Attach(uint64_t count, const Key& key) { buckets_[count].push_back(key); }

  void Detach(uint64_t count, const Key& key) {
    auto it = buckets_.find(count);
    ACTOP_CHECK(it != buckets_.end());
    auto& vec = it->second;
    for (size_t i = 0; i < vec.size(); i++) {
      if (vec[i] == key) {
        vec[i] = vec.back();
        vec.pop_back();
        break;
      }
    }
    if (vec.empty()) {
      buckets_.erase(it);
    }
  }

  size_t capacity_;
  uint64_t total_ = 0;
  std::unordered_map<Key, Counter, Hash> counters_;
  std::map<uint64_t, std::vector<Key>> buckets_;
};

}  // namespace actop

#endif  // ORACLES_SPACE_SAVING_REFERENCE_H_
