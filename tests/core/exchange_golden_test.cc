// Golden + differential tests for the indexed-heap DecideExchange /
// scratch-buffer BuildPeerPlans rewrite (src/core/pairwise_partition.cc,
// src/core/exchange_heap.h).
//
// Two layers of proof that exchange decisions are byte-identical to seed:
//   1. Golden digests generated by the seed implementation (lazy-deletion
//      GreedyHeap, per-vertex remote-weight hash maps) at commit d1a9574,
//      over randomized LocalGraphViews with dyadic weights (exact doubles,
//      so digests are immune to summation reassociation).
//   2. A live differential against the retained reference implementation
//      (pairwise_partition_reference.h) on a disjoint seed range, which
//      keeps covering new instance shapes if the generator ever grows.
// The digests cover candidate sets (content AND order), per-plan scores,
// peer ranking, the accepted subset S0 in acceptance order, and the full
// counter-offer payload T0.

#include "tests/core/partition_golden_util.h"

#include <gtest/gtest.h>

#include "oracles/pairwise_partition_reference.h"

namespace actop {
namespace {

// Generated from the seed implementation: ExchangeGoldenDigest(seed) for
// seeds 1..80.
constexpr uint64_t kExchangeGoldens[80] = {
    0x6abad32af7ab9b90ULL, 0x7f882c486bb87473ULL, 0x6cd5a2951ecc4a07ULL, 0x6fea74b5aca2c03dULL,
    0x3f45b4535947d63bULL, 0x9d643a99ed0a7b50ULL, 0x3ec77ea0b7130701ULL, 0x810967242e3d0f88ULL,
    0xff7c6a77e85de7aeULL, 0xb07b61967023b58bULL, 0xfe92d3ae5097c33fULL, 0xcc40154dd4efee5aULL,
    0xbd346e69b16e654eULL, 0xf6e4438aa59f1c22ULL, 0x6333b37b472a4fe4ULL, 0x6e31ff3964d6f373ULL,
    0x8c1e60b6cd0d2f3aULL, 0x05d8e511a3cb9ed6ULL, 0x368dffb35edae489ULL, 0xbb1e5c236bf2e2cbULL,
    0xf31ec79996e77cd3ULL, 0xa77c55a0f8747ef4ULL, 0xee96ebf3fa590ed2ULL, 0x4fe52a3c85c7cf85ULL,
    0xdaf1de1251971a5dULL, 0xc14755adb78b1e1cULL, 0x3f8206f92b914727ULL, 0x2ec0513beedb6318ULL,
    0x618c6e0bbe75b960ULL, 0xd334b3459ee2e222ULL, 0x6fd28e3814842962ULL, 0xbdbe7f8a81602979ULL,
    0x03c68245be93e751ULL, 0x4c08e1c266680808ULL, 0xe8f4468f44c81383ULL, 0xce254a332302cfe0ULL,
    0x88405a93a5c3ec64ULL, 0x24bf557e5b250c07ULL, 0x4ad4de354a785488ULL, 0x3aba623e2a8e58f0ULL,
    0x8521b966757b70afULL, 0x1c204ffdb325fa76ULL, 0x8dd22e2cf23988caULL, 0xfd8ef7b07e651d77ULL,
    0x5c5d6f1ab5da78a5ULL, 0xa8974e41dabc39f1ULL, 0x586281f08c407ae6ULL, 0xf9f0acd293266ce4ULL,
    0xb2c09a0df3e6a25bULL, 0x0bb94c6aed114b1cULL, 0x2cd9b2d58a7d4ff1ULL, 0xfa0c88f50d20bcb3ULL,
    0xaf6fd8d74aa07527ULL, 0xbbc87f9b3b6c43c3ULL, 0x70cf7c18f3494024ULL, 0x39e9284975a2a558ULL,
    0xeee3ca4505a9b869ULL, 0x883de7e8942dfc5cULL, 0x97979624e0842b9dULL, 0xf3b230a4978ee2b3ULL,
    0xb94affc4dc54c903ULL, 0x0c6b37b11308300aULL, 0xa62a43d4cf086184ULL, 0xe47b29d7d89223dfULL,
    0x32e94aff0a67e5cfULL, 0x6722a505962a184cULL, 0x7a7af8e6474f4368ULL, 0x3cbcf7df2a526e5dULL,
    0xf39d2f6108927178ULL, 0xbc8a2311ce738324ULL, 0x31bd00367f5b9083ULL, 0xabe286b8b6bad83fULL,
    0xe164d3895f3f9bf8ULL, 0x8afef0e1eb4d938bULL, 0x2d54119e68785923ULL, 0x726c71d17f809e44ULL,
    0x13dc1755c359a530ULL, 0x0e33904b0eb1a21eULL, 0x797de866b850b2e8ULL, 0xc45c56fa1a503574ULL,
};

TEST(ExchangeGoldenTest, DecisionsMatchSeedGoldens) {
  for (uint64_t seed = 1; seed <= 80; seed++) {
    EXPECT_EQ(ExchangeGoldenDigest(seed), kExchangeGoldens[seed - 1]) << "seed " << seed;
  }
}

// Old-vs-new on randomized views: plans (candidate sets, order, scores, peer
// ranking) and decisions (accepted subset + counter-offer) from the
// optimized path must equal the retained seed algorithm's, instance by
// instance.
TEST(ExchangeGoldenTest, DecisionsMatchRetainedReference) {
  for (uint64_t seed = 500; seed < 700; seed++) {
    const GoldenExchangeInstance gi = MakeGoldenExchangeInstance(seed);

    const std::vector<PeerPlan> new_plans = BuildPeerPlans(gi.q_view, gi.config);
    const std::vector<PeerPlan> ref_plans = seedref::BuildPeerPlans(gi.q_view, gi.config);
    GoldenDigest new_digest;
    GoldenDigest ref_digest;
    DigestPlans(new_plans, &new_digest);
    DigestPlans(ref_plans, &ref_digest);
    EXPECT_EQ(new_digest.h, ref_digest.h) << "plans diverged at seed " << seed;

    const ExchangeDecision new_decision = DecideExchange(gi.q_view, gi.request, gi.config);
    const ExchangeDecision ref_decision =
        seedref::DecideExchange(gi.q_view, gi.request, gi.config);
    EXPECT_EQ(new_decision.accepted, ref_decision.accepted) << "seed " << seed;
    ASSERT_EQ(new_decision.counter_offer.size(), ref_decision.counter_offer.size())
        << "seed " << seed;
    for (size_t i = 0; i < new_decision.counter_offer.size(); i++) {
      EXPECT_EQ(new_decision.counter_offer[i].vertex, ref_decision.counter_offer[i].vertex)
          << "seed " << seed << " offer " << i;
    }
  }
}

// The seed's GreedyHeap let the same vertex be offered twice and resolved it
// via map overwrite (last candidate wins). The indexed heap must reproduce
// that, since a remote peer is free to send duplicate candidates.
TEST(ExchangeGoldenTest, DuplicateOffersLastWins) {
  LocalGraphView q_view;
  q_view.self = 1;
  q_view.num_local_vertices = 10;

  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 10;
  Candidate weak;
  weak.vertex = 7;
  weak.score = 1.0;
  weak.edges = {{100, {0.25, 1}}};
  Candidate strong;
  strong.vertex = 7;
  strong.score = 5.0;
  strong.edges = {{100, {6.0, 1}}};
  request.candidates = {weak, strong};

  PairwiseConfig config;
  config.balance_delta = 4;
  const ExchangeDecision decision = DecideExchange(q_view, request, config);
  const ExchangeDecision ref_decision = seedref::DecideExchange(q_view, request, config);
  ASSERT_EQ(decision.accepted, std::vector<VertexId>{7});
  EXPECT_EQ(decision.accepted, ref_decision.accepted);
}

}  // namespace
}  // namespace actop
