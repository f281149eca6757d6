#include "oracles/streaming_partitioner.h"

#include <gtest/gtest.h>

#include "oracles/partition_testbed.h"
#include "src/common/rng.h"
#include "tests/core/stream_golden_util.h"

namespace actop {
namespace {

// Streams a graph's vertices (in id order) through a partitioner and
// returns the resulting cut cost.
double StreamAndCut(const WeightedGraph& g, StreamingPartitioner* partitioner) {
  for (VertexId v : g.Vertices()) {
    partitioner->Place(v, g.NeighborsOf(v));
  }
  return CutCost(g.adjacency(), partitioner->assignment());
}

TEST(StreamingPartitionerTest, EveryVertexPlacedExactlyOnce) {
  Rng rng(1);
  WeightedGraph g = MakeRandomGraph(200, 600, 1.0, &rng);
  StreamingPartitioner sp(4, 200, 600, StreamingPartitionerConfig{});
  for (VertexId v : g.Vertices()) {
    const ServerId first = sp.Place(v, g.NeighborsOf(v));
    EXPECT_EQ(sp.Place(v, g.NeighborsOf(v)), first);  // idempotent
  }
  EXPECT_EQ(sp.assignment().size(), g.num_vertices());
  int64_t total = 0;
  for (ServerId s = 0; s < 4; s++) {
    total += sp.PartSize(s);
  }
  EXPECT_EQ(total, static_cast<int64_t>(g.num_vertices()));
}

TEST(StreamingPartitionerTest, CapacityBoundRespected) {
  Rng rng(2);
  WeightedGraph g = MakeClusteredGraph(40, 5, 1.0, 0, 1.0, &rng);  // 200 vertices
  StreamingPartitionerConfig cfg;
  cfg.capacity_slack = 1.1;
  StreamingPartitioner sp(4, 200, 400, cfg);
  StreamAndCut(g, &sp);
  for (ServerId s = 0; s < 4; s++) {
    EXPECT_LE(sp.PartSize(s), static_cast<int64_t>(1.1 * 200 / 4) + 1);
  }
}

TEST(StreamingPartitionerTest, LdgBeatsHashingOnClusteredGraphs) {
  Rng rng(3);
  WeightedGraph g = MakeClusteredGraph(60, 8, 1.0, 100, 0.2, &rng);

  StreamingPartitionerConfig hash_cfg;
  hash_cfg.heuristic = StreamingHeuristic::kHashing;
  StreamingPartitioner hashing(6, 480, 2000, hash_cfg);
  const double hash_cut = StreamAndCut(g, &hashing);

  StreamingPartitionerConfig ldg_cfg;
  ldg_cfg.heuristic = StreamingHeuristic::kLinearDeterministicGreedy;
  StreamingPartitioner ldg(6, 480, 2000, ldg_cfg);
  const double ldg_cut = StreamAndCut(g, &ldg);

  // Stanton & Kliot's headline: LDG cuts far fewer edges than hashing.
  EXPECT_LT(ldg_cut, hash_cut * 0.6);
}

TEST(StreamingPartitionerTest, FennelAlsoBeatsHashing) {
  Rng rng(4);
  WeightedGraph g = MakeClusteredGraph(60, 8, 1.0, 100, 0.2, &rng);

  StreamingPartitionerConfig hash_cfg;
  hash_cfg.heuristic = StreamingHeuristic::kHashing;
  StreamingPartitioner hashing(6, 480, 2000, hash_cfg);
  const double hash_cut = StreamAndCut(g, &hashing);

  StreamingPartitionerConfig fennel_cfg;
  fennel_cfg.heuristic = StreamingHeuristic::kFennel;
  StreamingPartitioner fennel(6, 480, 2000, fennel_cfg);
  const double fennel_cut = StreamAndCut(g, &fennel);

  EXPECT_LT(fennel_cut, hash_cut * 0.7);
  EXPECT_LE(fennel.MaxImbalance(), static_cast<int64_t>(0.2 * 480 / 6) + 80);
}

// Pin every placement decision (all three heuristics, including the
// capacity-fallback path and idempotent re-placement) to golden digests
// generated from the seed implementation at commit d1a9574 — proof that
// hoisting Place()'s per-call neighbor_weight vector into a member scratch
// buffer changed no placement.
TEST(StreamingPartitionerTest, PlacementsMatchSeedGoldens) {
  constexpr uint64_t kLdgGoldens[24] = {
      0xc3f630857a97c882ULL, 0x7cb92451bd88ed66ULL, 0x848879937b697b83ULL, 0xa701447bbb513f02ULL,
      0x56ed50ea67b7c982ULL, 0xa7d7f2b8accefa08ULL, 0xe273f2b7403f3a0eULL, 0x27a6f4c612a23286ULL,
      0x974efe00ae83ec4bULL, 0x183fe4c6ec0c6663ULL, 0x4d96a1b47eed7ec0ULL, 0xb3a3bafb9edc844dULL,
      0x7af3d68d1d505aa6ULL, 0xe68d9e2f7bc34a28ULL, 0x8f95ed9dd885d408ULL, 0xf6743600e7673a05ULL,
      0xbba2bb7064762d6eULL, 0x97e4cd0715785406ULL, 0x3d4a67ca9c727ac5ULL, 0x9af5dc82668df783ULL,
      0x8abcf148c0b4028bULL, 0x1a784f744e3f65c4ULL, 0x6cf26fc5eeb0954fULL, 0x8920436182931eefULL,
  };
  constexpr uint64_t kFennelGoldens[24] = {
      0xecc41449825c6b46ULL, 0x2f31184e39761645ULL, 0x6bfaba6bf099dc24ULL, 0xc62362f8fe4e08c2ULL,
      0xaa603b987e7504eaULL, 0xccebd257a4b5474aULL, 0x00f20457536e5425ULL, 0xc7b4f942ce551ba8ULL,
      0x284abb1bb9d668e3ULL, 0x327a2263ff8e5362ULL, 0x4ded46b43e0b3bedULL, 0x557e173db53a3549ULL,
      0x29fbee1f2ba2c8a7ULL, 0x492d501070bb2ceaULL, 0x16e2cd082a187b08ULL, 0xf6743600e7673a05ULL,
      0x710069d2a5ee36e2ULL, 0x47428fbc865a7166ULL, 0x03c61ec26c73d7e0ULL, 0xe455b558fc0ca46bULL,
      0x71d0cb65e5c3676bULL, 0x340f3147948ecc87ULL, 0x2286e4340fee5340ULL, 0xed9c2c7e4cbc23e3ULL,
  };
  constexpr uint64_t kHashingGoldens[24] = {
      0x6d869c285181cd92ULL, 0xa5f1a148f71789cdULL, 0x9599125a7da5bbe7ULL, 0x24a8563701cb3b35ULL,
      0x2013ac199d609e34ULL, 0x611557b800895df5ULL, 0xdc5017d4e8deb2d1ULL, 0xf1da0fd645ee0e27ULL,
      0x168bba00e965729dULL, 0x4d7abe6d9b58e354ULL, 0x6684f7c9ff668319ULL, 0xb0f4fca8dd02bf76ULL,
      0x7fe57523a13318dbULL, 0x8f51d02799f7505aULL, 0x56c9126af41f5692ULL, 0xa6738440b02f62d8ULL,
      0x10dbb0fa2486d2b6ULL, 0x94f88da4f7cd2ee0ULL, 0x7e20add46f33412bULL, 0x38135781cdc7fc16ULL,
      0x8343fda4f7bbabdeULL, 0xaad23a47f39833b5ULL, 0xae6facba1888e1bdULL, 0xcd151b2ee9bfc813ULL,
  };
  for (uint64_t seed = 1; seed <= 24; seed++) {
    EXPECT_EQ(StreamingPlacementDigest(StreamingHeuristic::kLinearDeterministicGreedy, seed),
              kLdgGoldens[seed - 1])
        << "ldg seed " << seed;
    EXPECT_EQ(StreamingPlacementDigest(StreamingHeuristic::kFennel, seed),
              kFennelGoldens[seed - 1])
        << "fennel seed " << seed;
    EXPECT_EQ(StreamingPlacementDigest(StreamingHeuristic::kHashing, seed),
              kHashingGoldens[seed - 1])
        << "hashing seed " << seed;
  }
}

TEST(StreamingPartitionerTest, DynamicGraphIsWhereStreamingLoses) {
  // The paper's argument for continuous re-partitioning (§4.1/§7): a
  // streaming placement is fixed at arrival time, so when the communication
  // graph changes the one-shot placement decays toward random, while the
  // pairwise algorithm re-converges. Model one "re-matching" of a clustered
  // graph: same vertices, new cluster membership.
  Rng rng(5);
  const int clusters = 50;
  const int size = 8;
  WeightedGraph before = MakeClusteredGraph(clusters, size, 1.0, 0, 1.0, &rng);
  // After re-matching: vertex v joins cluster hash(v) — a permutation of
  // memberships with the same shape.
  WeightedGraph after;
  std::vector<std::vector<VertexId>> groups(clusters);
  for (VertexId v : before.Vertices()) {
    groups[SplitMix64(v * 7919) % clusters].push_back(v);
  }
  for (const auto& group : groups) {
    for (size_t i = 0; i < group.size(); i++) {
      for (size_t j = i + 1; j < group.size(); j++) {
        after.AddEdge(group[i], group[j], 1.0);
      }
    }
  }

  // Stream placement against the OLD graph.
  StreamingPartitioner ldg(5, clusters * size, 3000, StreamingPartitionerConfig{});
  StreamAndCut(before, &ldg);
  const double cut_after_change = CutCost(after.adjacency(), ldg.assignment());
  const double cut_before_change = CutCost(before.adjacency(), ldg.assignment());

  // The placement was good for the old graph and is poor for the new one.
  EXPECT_LT(cut_before_change, cut_after_change * 0.6);

  // The pairwise algorithm, started from the stale assignment, re-converges
  // on the new graph. (Emulates what the runtime's agents do continuously.)
  PairwiseConfig config;
  config.candidate_set_size = 32;
  config.balance_delta = 2 * size;
  PartitionTestbed bed(&after, 5, config, 6);
  bed.RunToConvergence(200);
  EXPECT_LT(bed.Cost(), cut_after_change * 0.5);
}

}  // namespace
}  // namespace actop
