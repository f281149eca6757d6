#include "src/runtime/envelope_pool.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "src/common/recycling_pool.h"

namespace actop {
namespace {

static_assert(!std::is_copy_constructible_v<EnvelopePtr>,
              "an envelope has exactly one owner; EnvelopePtr must be move-only");
static_assert(sizeof(EnvelopePtr) == sizeof(Envelope*), "the recycler is stateless");

TEST(RecyclingPoolTest, RecyclesBlocksOfTheCachedSize) {
  RecyclingBlockCache cache;
  void* first = cache.Allocate(16);
  EXPECT_EQ(cache.fresh_allocations(), 1u);
  cache.Release(first, 16);
  EXPECT_EQ(cache.cached_blocks(), 1u);
  // Same size, freed block available: the memory is reused.
  void* again = cache.Allocate(16);
  EXPECT_EQ(again, first);
  EXPECT_EQ(cache.fresh_allocations(), 1u);
  EXPECT_EQ(cache.recycled_allocations(), 1u);
  cache.Release(again, 16);
}

TEST(RecyclingPoolTest, OtherSizesPassThrough) {
  RecyclingBlockCache cache;
  void* small = cache.Allocate(8);  // fixes the cached block size
  void* big = cache.Allocate(256);  // different size: plain new/delete
  EXPECT_EQ(cache.fresh_allocations(), 2u);
  cache.Release(small, 8);
  cache.Release(big, 256);
  EXPECT_EQ(cache.cached_blocks(), 1u);  // only the small block was cached
}

TEST(RecyclingPoolTest, FullCacheFreesReleasedBlocks) {
  RecyclingBlockCache cache(/*max_cached=*/1);
  void* a = cache.Allocate(32);
  void* b = cache.Allocate(32);
  cache.Release(a, 32);
  cache.Release(b, 32);  // over the bound: deleted, not cached
  EXPECT_EQ(cache.cached_blocks(), 1u);
  EXPECT_EQ(cache.Allocate(32), a);
  cache.Release(a, 32);
}

TEST(EnvelopePoolTest, RecyclesEnvelopeObjects) {
  // The pool retains the Envelope object itself (reset, capacity preserved),
  // not just its memory: releasing one envelope and asking for another must
  // hand back the same object without any construction traffic.
  // The baseline is taken with one envelope out, so the expectations hold
  // whatever earlier tests left on the thread-local free list.
  Envelope* raw = nullptr;
  EnvelopePoolStats before;
  {
    auto env = MakeEnvelope();
    raw = env.get();
    before = GetEnvelopePoolStats();
  }
  EXPECT_EQ(GetEnvelopePoolStats().cached, before.cached + 1);
  auto env2 = MakeEnvelope();
  EXPECT_EQ(env2.get(), raw);
  EXPECT_EQ(GetEnvelopePoolStats().recycled, before.recycled + 1);
}

TEST(EnvelopePoolTest, RecycledControlEnvelopeLeaksNoStalePayload) {
  // Regression: an envelope that carried a populated kControl
  // PartitionExchangeRequest, recycled into a kCall, must present fully
  // reset state — kind, hops, via_network AND the control
  // variant's values (the exchange vectors keep capacity only).
  Envelope* raw = nullptr;
  {
    auto env = MakeEnvelope();
    raw = env.get();
    env->kind = MessageKind::kControl;
    env->hops = 3;
    env->via_network = true;
    env->reply_to = 7;
    PartitionExchangeRequest req;
    req.from_num_vertices = 99;
    req.exchange_id = 41;
    req.candidates.resize(5);
    req.candidates[0].vertex = 77;
    req.candidates[0].score = 2.5;
    env->control = std::move(req);
  }
  auto env2 = MakeEnvelope();
  ASSERT_EQ(env2.get(), raw);  // same object back from the pool
  EXPECT_EQ(env2->kind, MessageKind::kCall);
  EXPECT_EQ(env2->hops, 0);
  EXPECT_FALSE(env2->via_network);
  EXPECT_EQ(env2->reply_to, kNoNode);
  EXPECT_EQ(env2->call_id, CallId{});
  // The variant stays on the exchange alternative (capacity retention), but
  // every value in it must be reset.
  const auto* req = std::get_if<PartitionExchangeRequest>(&env2->control);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->from_num_vertices, 0);
  EXPECT_EQ(req->exchange_id, 0u);
  EXPECT_TRUE(req->candidates.empty());
  EXPECT_GE(req->candidates.capacity(), 5u);  // the point of retaining it
}

TEST(EnvelopePoolTest, RecycledResponseEnvelopeResetsAccepted) {
  Envelope* raw = nullptr;
  {
    auto env = MakeEnvelope();
    raw = env.get();
    env->kind = MessageKind::kControl;
    PartitionExchangeResponse resp;
    resp.rejected = true;
    resp.exchange_id = 9;
    resp.accepted = {1, 2, 3};
    env->control = std::move(resp);
  }
  auto env2 = MakeEnvelope();
  ASSERT_EQ(env2.get(), raw);
  const auto* resp = std::get_if<PartitionExchangeResponse>(&env2->control);
  ASSERT_NE(resp, nullptr);
  EXPECT_FALSE(resp->rejected);
  EXPECT_EQ(resp->exchange_id, 0u);
  EXPECT_TRUE(resp->accepted.empty());
  EXPECT_GE(resp->accepted.capacity(), 3u);
}

TEST(EnvelopePoolTest, EnvelopesAreFreshlyConstructed) {
  auto env = MakeEnvelope();
  env->kind = MessageKind::kResponse;
  env->hops = 9;
  env->payload_bytes = 123;
  env.reset();
  // A recycled envelope must look exactly like a freshly constructed one.
  auto env2 = MakeEnvelope();
  EXPECT_EQ(env2->kind, MessageKind::kCall);
  EXPECT_EQ(env2->hops, 0);
  EXPECT_EQ(env2->payload_bytes, 0u);
  EXPECT_EQ(env2->target, kNoActor);
  EXPECT_FALSE(env2->via_network);
}

TEST(EnvelopePoolTest, SteadyStateTrafficRecycles) {
  // Warm the pool, then measure: churning envelopes one at a time must not
  // construct new ones.
  MakeEnvelope().reset();
  const EnvelopePoolStats before = GetEnvelopePoolStats();
  for (int i = 0; i < 1000; i++) {
    auto env = MakeEnvelope();
    env->app_data = static_cast<uint64_t>(i);
  }
  const EnvelopePoolStats after = GetEnvelopePoolStats();
  EXPECT_EQ(after.fresh, before.fresh);
  EXPECT_EQ(after.recycled, before.recycled + 1000);
  EXPECT_EQ(after.cached, before.cached);
}

TEST(EnvelopePoolTest, MovingAnEnvelopeKeepsOneOwner) {
  EnvelopePtr env = MakeEnvelope();
  Envelope* raw = env.get();
  const EnvelopePoolStats before = GetEnvelopePoolStats();
  EnvelopePtr moved = std::move(env);
  EXPECT_EQ(env, nullptr);  // NOLINT(bugprone-use-after-move): the point of the test
  EXPECT_EQ(moved.get(), raw);
  EXPECT_EQ(GetEnvelopePoolStats().cached, before.cached);
  moved.reset();  // the one owner releases it: parked exactly once
  EXPECT_EQ(GetEnvelopePoolStats().cached, before.cached + 1);
}

}  // namespace
}  // namespace actop
