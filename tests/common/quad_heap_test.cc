#include "src/common/quad_heap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace actop {
namespace {

struct Entry {
  int64_t key;
  uint32_t id;

  std::pair<int64_t, uint32_t> Pair() const { return {key, id}; }
};

// (key, id) under `Cmp`: a strict total order, since ids are unique.
template <typename Cmp>
struct Order {
  bool operator()(const Entry& a, const Entry& b) const { return Cmp()(a.Pair(), b.Pair()); }
};

struct RecordPosition {
  std::vector<size_t>* pos;
  void operator()(const Entry& e, size_t p) const { (*pos)[e.id] = p; }
};

// Drives random Push/PopRoot/RemoveAt/Fix against a std::set holding the
// same (key, id) pairs in the same order, and after every operation checks
// the root against the set and every entry's hooked position against its
// array index.
template <typename Cmp>
void RunAgainstSet(uint64_t seed) {
  constexpr uint32_t kIds = 300;
  std::vector<size_t> pos(kIds, 0);
  std::vector<bool> live(kIds, false);
  std::vector<int64_t> key_of(kIds, 0);
  QuadHeap<Entry, Order<Cmp>, RecordPosition> heap(Order<Cmp>{}, RecordPosition{&pos});
  std::set<std::pair<int64_t, uint32_t>, Cmp> ref;
  Rng rng(seed);

  auto random_live_id = [&]() -> int64_t {
    if (ref.empty()) return -1;
    for (;;) {
      const auto id = static_cast<uint32_t>(rng.NextBounded(kIds));
      if (live[id]) return id;
    }
  };

  for (int step = 0; step < 20000; step++) {
    const uint64_t op = rng.NextBounded(4);
    if (op == 0 || ref.empty()) {
      const auto id = static_cast<uint32_t>(rng.NextBounded(kIds));
      if (live[id]) continue;
      // Few distinct keys, so ties on key (broken by id) are common.
      key_of[id] = rng.NextInt(0, 40);
      live[id] = true;
      heap.Push(Entry{key_of[id], id});
      ref.insert({key_of[id], id});
    } else if (op == 1) {
      ASSERT_EQ(heap.top().Pair(), *ref.begin());
      live[heap.top().id] = false;
      ref.erase(ref.begin());
      heap.PopRoot();
    } else if (op == 2) {
      const auto id = static_cast<uint32_t>(random_live_id());
      ASSERT_EQ(heap[pos[id]].id, id);
      heap.RemoveAt(pos[id]);
      ref.erase({key_of[id], id});
      live[id] = false;
    } else {
      const auto id = static_cast<uint32_t>(random_live_id());
      ref.erase({key_of[id], id});
      key_of[id] = rng.NextInt(0, 40);
      ref.insert({key_of[id], id});
      heap.mutable_at(pos[id]).key = key_of[id];
      heap.Fix(pos[id]);
    }
    ASSERT_EQ(heap.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(heap.top().Pair(), *ref.begin()) << "step " << step;
    }
    for (size_t p = 0; p < heap.size(); p++) {
      ASSERT_EQ(pos[heap[p].id], p) << "step " << step;
    }
  }
  // Draining pops the reference's exact sequence.
  for (const auto& expected : ref) {
    ASSERT_EQ(heap.top().Pair(), expected);
    heap.PopRoot();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(QuadHeapTest, MinOrderMatchesSet) {
  for (uint64_t seed = 1; seed <= 3; seed++) {
    RunAgainstSet<std::less<std::pair<int64_t, uint32_t>>>(seed);
  }
}

TEST(QuadHeapTest, MaxOrderMatchesSet) {
  for (uint64_t seed = 1; seed <= 3; seed++) {
    RunAgainstSet<std::greater<std::pair<int64_t, uint32_t>>>(seed);
  }
}

}  // namespace
}  // namespace actop
