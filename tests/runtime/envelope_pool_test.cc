#include "src/runtime/envelope_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/recycling_pool.h"

namespace actop {
namespace {

TEST(RecyclingPoolTest, RecyclesBlocksOfTheCachedSize) {
  RecyclingBlockCache cache;
  struct Payload {
    uint64_t a = 1;
    uint64_t b = 2;
  };
  void* first = nullptr;
  {
    auto p = MakePooled<Payload>(cache);
    first = p.get();
    EXPECT_EQ(cache.fresh_allocations(), 1u);
  }
  EXPECT_EQ(cache.cached_blocks(), 1u);
  {
    // Same type, freed block available: memory is reused, object is fresh.
    auto p = MakePooled<Payload>(cache);
    EXPECT_EQ(p.get(), first);
    EXPECT_EQ(p->a, 1u);
    EXPECT_EQ(cache.fresh_allocations(), 1u);
    EXPECT_EQ(cache.recycled_allocations(), 1u);
  }
}

TEST(RecyclingPoolTest, OtherSizesPassThrough) {
  RecyclingBlockCache cache;
  struct Small {
    uint64_t a = 0;
  };
  struct Big {
    uint64_t a[32] = {};
  };
  auto s = MakePooled<Small>(cache);  // fixes the cached block size
  auto b = MakePooled<Big>(cache);    // different size: plain new/delete
  EXPECT_EQ(cache.fresh_allocations(), 2u);
  s.reset();
  b.reset();
  EXPECT_EQ(cache.cached_blocks(), 1u);  // only the Small block was cached
}

TEST(RecyclingPoolTest, WeakPtrKeepsControlBlockAlive) {
  // The combined block is released only when strong AND weak counts drop;
  // the cache must not see the block until then.
  RecyclingBlockCache cache;
  struct Payload {
    int x = 5;
  };
  std::weak_ptr<Payload> weak;
  {
    auto p = MakePooled<Payload>(cache);
    weak = p;
  }
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(cache.cached_blocks(), 0u);  // weak_ptr still pins the block
  weak.reset();
  EXPECT_EQ(cache.cached_blocks(), 1u);
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
  // reset state — kind, hops, via_network, created_at AND the control
  // variant's values (the exchange vectors keep capacity only).
  Envelope* raw = nullptr;
  {
    auto env = MakeEnvelope();
    raw = env.get();
    env->kind = MessageKind::kControl;
    env->hops = 3;
    env->via_network = true;
    env->created_at = 12345;
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
  EXPECT_EQ(env2->created_at, 0);
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
  // A recycled envelope must look exactly like make_shared<Envelope>().
  auto env2 = MakeEnvelope();
  EXPECT_EQ(env2->kind, MessageKind::kCall);
  EXPECT_EQ(env2->hops, 0);
  EXPECT_EQ(env2->payload_bytes, 0u);
  EXPECT_EQ(env2->target, kNoActor);
  EXPECT_FALSE(env2->via_network);
}

TEST(EnvelopePoolTest, SteadyStateTrafficRecycles) {
  RecyclingBlockCache& cache = EnvelopeBlockCache();
  // Warm the pool, then measure: churning envelopes one at a time must not
  // take fresh allocations.
  MakeEnvelope().reset();
  const uint64_t fresh_before = cache.fresh_allocations();
  for (int i = 0; i < 1000; i++) {
    auto env = MakeEnvelope();
    env->app_data = static_cast<uint64_t>(i);
  }
  EXPECT_EQ(cache.fresh_allocations(), fresh_before);
  EXPECT_GE(cache.recycled_allocations(), 1000u);
}

}  // namespace
}  // namespace actop
