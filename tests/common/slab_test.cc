#include "src/common/slab.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace actop {
namespace {

TEST(SlabTest, ReusesFreedSlotsLastInFirstOut) {
  Slab<int> slab;
  for (uint32_t i = 0; i < 5; i++) {
    EXPECT_EQ(slab.Alloc(), i);
  }
  slab.Free(1);
  slab.Free(3);
  slab.Free(0);
  EXPECT_EQ(slab.Alloc(), 0u);
  EXPECT_EQ(slab.Alloc(), 3u);
  EXPECT_EQ(slab.Alloc(), 1u);
  // The free list is empty again: the next slot is new.
  EXPECT_EQ(slab.Alloc(), 5u);
  EXPECT_EQ(slab.size(), 6u);
}

TEST(SlabTest, RecycledSlotKeepsItsLastValue) {
  Slab<std::vector<std::string>> slab;
  const uint32_t a = slab.Alloc();
  EXPECT_TRUE(slab[a].empty());  // a new slot is value-initialized
  slab[a] = {"x", "y"};
  slab.Free(a);
  const uint32_t b = slab.Alloc();
  ASSERT_EQ(b, a);
  EXPECT_EQ(slab[b], (std::vector<std::string>{"x", "y"}));
}

TEST(SlabTest, ClearDropsEverySlot) {
  Slab<int> slab;
  slab[slab.Alloc()] = 7;
  slab[slab.Alloc()] = 8;
  slab.Free(0);
  slab.Clear();
  EXPECT_EQ(slab.size(), 0u);
  // Neither the freed slot nor the values survive: allocation restarts at 0
  // with fresh slots.
  const uint32_t i = slab.Alloc();
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(slab[i], 0);
  EXPECT_EQ(slab.Alloc(), 1u);
  EXPECT_EQ(slab[1], 0);
}

}  // namespace
}  // namespace actop
