#include "src/common/slab_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace actop {
namespace {

// A hasher unrelated to FlatHashU64 (the keys below are random, so identity
// spreads them well): a different index layout for the same keys.
struct IdentityHash {
  size_t operator()(uint64_t x) const { return static_cast<size_t>(x); }
};

template <typename Map>
std::vector<std::pair<uint64_t, int>> Walk(const Map& m) {
  std::vector<std::pair<uint64_t, int>> out;
  m.ForEach([&out](uint64_t key, int value) { out.emplace_back(key, value); });
  return out;
}

TEST(SlabMapTest, InsertFindErase) {
  SlabMap<uint64_t, int> m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_FALSE(m.Erase(7));
  m.Insert(7) = 70;
  m.Insert(8) = 80;
  EXPECT_TRUE(m.Contains(7));
  ASSERT_NE(m.Find(8), nullptr);
  EXPECT_EQ(*m.Find(8), 80);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.Erase(7));
  EXPECT_FALSE(m.Contains(7));
  EXPECT_EQ(m.size(), 1u);
  m.Clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.Contains(8));
}

TEST(SlabMapTest, WalkOrderIndependentOfHasher) {
  // The same insert/erase/clear history visits ForEach in the same order
  // whatever the hasher, so a replay that walks a SlabMap never observes
  // hash layout.
  SlabMap<uint64_t, int> a;
  SlabMap<uint64_t, int, IdentityHash> b;
  Rng rng(42);
  std::vector<uint64_t> live;
  for (int step = 0; step < 20000; step++) {
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 55 || live.empty()) {
      const uint64_t key = rng.NextU64();
      if (a.Contains(key)) continue;
      a.Insert(key) = step;
      b.Insert(key) = step;
      live.push_back(key);
    } else if (roll < 99) {
      const size_t i = rng.NextBounded(live.size());
      EXPECT_TRUE(a.Erase(live[i]));
      EXPECT_TRUE(b.Erase(live[i]));
      live[i] = live.back();
      live.pop_back();
    } else {
      a.Clear();
      b.Clear();
      live.clear();
    }
    if (step % 1000 == 0) {
      ASSERT_EQ(Walk(a), Walk(b)) << "step " << step;
    }
  }
  EXPECT_EQ(a.size(), live.size());
  EXPECT_EQ(Walk(a), Walk(b));
}

TEST(SlabMapTest, FreedSlotsAreReusedLastInFirstOut) {
  SlabMap<uint64_t, int> m;
  for (uint64_t k = 1; k <= 5; k++) m.Insert(k) = static_cast<int>(k);
  // Slots 1, 3 and 4 (keys 2, 4, 5) are freed in that order...
  m.Erase(2);
  m.Erase(4);
  m.Erase(5);
  // ...so new keys land in slots 4, 3, 1: the walk shows where they went.
  m.Insert(10) = 10;
  m.Insert(20) = 20;
  m.Insert(30) = 30;
  m.Insert(40) = 40;  // free list empty: a new slot at the end
  const std::vector<std::pair<uint64_t, int>> expected = {
      {1, 1}, {30, 30}, {3, 3}, {20, 20}, {10, 10}, {40, 40}};
  EXPECT_EQ(Walk(m), expected);
}

TEST(SlabMapTest, EraseIfFreesInAscendingSlotOrder) {
  SlabMap<uint64_t, int> m;
  for (uint64_t k = 1; k <= 6; k++) m.Insert(k) = static_cast<int>(k % 2);
  EXPECT_EQ(m.EraseIf([](uint64_t, int odd) { return odd == 1; }), 3u);
  EXPECT_EQ(m.size(), 3u);
  // Slots 0, 2, 4 were freed ascending, so slot 4 is reused first, then 2.
  m.Insert(100) = 100;
  m.Insert(200) = 200;
  const std::vector<std::pair<uint64_t, int>> expected = {
      {2, 0}, {200, 200}, {4, 0}, {100, 100}, {6, 0}};
  EXPECT_EQ(Walk(m), expected);
}

TEST(SlabMapTest, RecycledSlotKeepsItsValueBuffer) {
  SlabMap<uint64_t, std::vector<int>> m;
  std::vector<int>& first = m.Insert(1);
  first.assign(64, 7);
  const int* buffer = first.data();
  first.clear();
  m.Erase(1);
  std::vector<int>& second = m.Insert(2);
  EXPECT_TRUE(second.empty());
  EXPECT_GE(second.capacity(), 64u);
  second.push_back(1);
  EXPECT_EQ(second.data(), buffer);  // no reallocation: the same buffer
}

TEST(SlabMapTest, FindPointersSurviveErase) {
  SlabMap<uint64_t, int> m;
  for (uint64_t k = 1; k <= 100; k++) m.Insert(k) = static_cast<int>(k);
  int* kept = m.Find(50);
  ASSERT_NE(kept, nullptr);
  for (uint64_t k = 1; k <= 100; k++) {
    if (k != 50) m.Erase(k);
  }
  EXPECT_EQ(m.Find(50), kept);
  EXPECT_EQ(*kept, 50);
}

}  // namespace
}  // namespace actop
