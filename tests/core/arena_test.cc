// RepartitionArena unit + property tests: CSR structural equivalence with
// WeightedGraph, incremental cut-cost maintenance, Theorem 1 properties
// (monotone cost decrease, balance preservation) for the k-way
// generalization and the lazy-threshold baseline, policy smoke coverage,
// and baked assignment digests (cross-stdlib determinism — the arena never
// iterates an unordered container, so these must not move between
// standard-library versions).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "oracles/partition_testbed.h"
#include "oracles/repartition_policy.h"
#include "src/common/rng.h"
#include "src/core/csr_graph.h"
#include "src/core/repartition_arena.h"
#include "tests/core/partition_golden_util.h"

namespace actop {
namespace {

WeightedGraph MakeDyadicRandomGraph(int vertices, int edges, Rng* rng) {
  WeightedGraph g;
  for (int v = 1; v <= vertices; v++) {
    g.AddVertex(static_cast<VertexId>(v));
  }
  for (int e = 0; e < edges; e++) {
    const auto a = static_cast<VertexId>(rng->NextInt(1, vertices));
    auto b = static_cast<VertexId>(rng->NextInt(1, vertices));
    while (b == a) {
      b = static_cast<VertexId>(rng->NextInt(1, vertices));
    }
    g.AddEdge(a, b, NextDyadic(rng, 0.125, 8.0));
  }
  return g;
}

TEST(CsrGraphTest, MirrorsWeightedGraph) {
  Rng rng(3);
  const WeightedGraph g = MakeDyadicRandomGraph(80, 300, &rng);
  const CsrGraph csr = CsrFromWeighted(g);
  ASSERT_EQ(static_cast<size_t>(csr.num_vertices()), g.num_vertices());
  const std::vector<VertexId> ids = g.Vertices();
  for (int32_t idx = 0; idx < csr.num_vertices(); idx++) {
    const VertexId v = csr.IdOf(idx);
    EXPECT_EQ(v, ids[static_cast<size_t>(idx)]);  // ascending-id layout
    EXPECT_EQ(csr.IndexOf(v), idx);
    const VertexAdjacency& adj = g.NeighborsOf(v);
    ASSERT_EQ(csr.DegreeOf(idx), adj.size());
    int32_t prev = -1;
    for (size_t e = csr.EdgeBegin(idx); e < csr.EdgeEnd(idx); e++) {
      const int32_t u_idx = csr.EdgeNeighbor(e);
      EXPECT_GT(u_idx, prev);  // span sorted by neighbor index
      prev = u_idx;
      const VertexId u = csr.IdOf(u_idx);
      ASSERT_TRUE(adj.contains(u));
      EXPECT_EQ(csr.EdgeWeight(e), adj.at(u));
    }
  }
  EXPECT_EQ(csr.IndexOf(static_cast<VertexId>(1000000)), CsrGraph::kNoIndex);
}

TEST(CsrGraphTest, IncludesIsolatedVertices) {
  WeightedGraph g;
  g.AddVertex(5);
  g.AddVertex(9);
  g.AddEdge(1, 2, 1.0);
  const CsrGraph csr = CsrFromWeighted(g);
  ASSERT_EQ(csr.num_vertices(), 4);
  // Dense indices follow ascending id over every vertex, isolated ones too.
  EXPECT_EQ(csr.IndexOf(5), 2);
  EXPECT_EQ(csr.IndexOf(9), 3);
  EXPECT_EQ(csr.DegreeOf(csr.IndexOf(5)), 0u);
  EXPECT_EQ(csr.DegreeOf(csr.IndexOf(1)), 1u);
}

TEST(ArenaTest, InitialPlacementMatchesTestbed) {
  Rng grng(17);
  const WeightedGraph g = MakeClusteredGraph(30, 6, 3.0, 120, 1.0, &grng);
  const CsrGraph csr = CsrFromWeighted(g);
  PairwiseConfig config;
  const PartitionTestbed testbed(&g, 6, config, 99);
  const RepartitionArena arena(&csr, 6, config, 99);
  for (VertexId v : g.Vertices()) {
    ASSERT_EQ(testbed.LocationOf(v), arena.LocationOf(v));
  }
  EXPECT_EQ(testbed.ServerSizes(), arena.ServerSizes());
  EXPECT_EQ(testbed.Cost(), arena.cost());  // integer weights: sums exact
}

TEST(ArenaTest, IncrementalCostMatchesRecompute) {
  Rng grng(23);
  const WeightedGraph g = MakeDyadicRandomGraph(200, 900, &grng);
  const CsrGraph csr = CsrFromWeighted(g);
  PairwiseConfig config;
  RepartitionArena arena(&csr, 5, config, 4);
  EXPECT_EQ(arena.cost(), arena.RecomputeCost());
  for (int sweep = 0; sweep < 6; sweep++) {
    arena.RunPairwiseSweep();
    // Dyadic weights: incremental O(deg) maintenance must equal the O(E)
    // recompute bit-for-bit, not just approximately.
    ASSERT_EQ(arena.cost(), arena.RecomputeCost());
  }
  EXPECT_GT(arena.total_migrations(), 0);
}

// Theorem 1 properties for the k-way generalization: every sweep that moves
// vertices strictly decreases the cut, and the balance band holds after
// every round.
TEST(ArenaTest, KWayMonotoneCostDecreaseAndBalance) {
  for (const uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const int fanout : {2, 4}) {
      Rng grng(seed);
      const WeightedGraph g = MakeChurnedClusteredGraph(25, 8, 4.0, 0.3, &grng);
      const CsrGraph csr = CsrFromWeighted(g);
      PairwiseConfig config;
      config.balance_delta = 12;
      RepartitionArena arena(&csr, 8, config, seed * 31 + 7);
      const double lo = arena.config().target_size -
                        static_cast<double>(config.balance_delta) / 2.0;
      const double hi = arena.config().target_size +
                        static_cast<double>(config.balance_delta) / 2.0;
      double cost = arena.cost();
      for (int sweep = 0; sweep < 12; sweep++) {
        const double sweep_start_cost = cost;
        int moved = 0;
        for (ServerId p = 0; p < arena.num_servers(); p++) {
          moved += arena.RunKWayRound(p, fanout);
          // Balance band must hold after every round, not only at the end.
          for (const int64_t s : arena.ServerSizes()) {
            ASSERT_GE(static_cast<double>(s), lo);
            ASSERT_LE(static_cast<double>(s), hi);
          }
          ASSERT_LE(arena.cost(), cost);  // monotone per round
          cost = arena.cost();
        }
        if (moved == 0) {
          break;
        }
        ASSERT_LT(cost, sweep_start_cost);  // strict decrease while moving
      }
      EXPECT_EQ(arena.cost(), arena.RecomputeCost());
    }
  }
}

// The lazy-threshold baseline is monotone by construction (every fired move
// has positive gain against ground truth) and balance-checked.
TEST(ArenaTest, ObrThresholdMonotoneAndBalanced) {
  Rng grng(5);
  const WeightedGraph g = MakeClusteredGraph(40, 8, 4.0, 200, 1.0, &grng);
  const CsrGraph csr = CsrFromWeighted(g);
  PairwiseConfig config;
  config.balance_delta = 16;
  RepartitionArena arena(&csr, 8, config, 12);
  double cost = arena.cost();
  for (int sweep = 0; sweep < 10; sweep++) {
    const int64_t moved = arena.RunObrThresholdSweep(0.5);
    EXPECT_LE(arena.cost(), cost);
    if (moved == 0) {
      break;
    }
    EXPECT_LT(arena.cost(), cost);
    cost = arena.cost();
    EXPECT_LE(arena.MaxImbalance(), config.balance_delta);
  }
}

TEST(ArenaTest, AllPoliciesReduceCostOnClusteredGraph) {
  for (auto& policy : MakeArenaPolicies()) {
    Rng grng(29);
    const WeightedGraph g = MakeClusteredGraph(32, 8, 4.0, 150, 1.0, &grng);
    const CsrGraph csr = CsrFromWeighted(g);
    PairwiseConfig config;
    RepartitionArena arena(&csr, 8, config, 77);
    const double initial = arena.cost();
    for (int sweep = 0; sweep < 15; sweep++) {
      if (policy->RunSweep(&arena) == 0) {
        break;
      }
    }
    EXPECT_LT(arena.cost(), initial) << policy->name();
    EXPECT_GT(arena.total_migrations(), 0) << policy->name();
    EXPECT_EQ(arena.cost(), arena.RecomputeCost()) << policy->name();
  }
}

TEST(ArenaTest, SizedActorsKeepSizeBandUnderKWay) {
  Rng grng(41);
  const WeightedGraph g = MakeClusteredGraph(20, 8, 4.0, 80, 1.0, &grng);
  const CsrGraph csr = CsrFromWeighted(g);
  PairwiseConfig config;
  config.balance_delta = 24;
  RepartitionArena arena(&csr, 4, config, 8);
  Rng srng(91);
  std::unordered_map<VertexId, double> sizes;
  for (VertexId v : g.Vertices()) {
    sizes[v] = NextDyadic(&srng, 0.5, 3.0);
  }
  arena.SetVertexSizes(sizes);
  const double lo =
      arena.config().target_size - static_cast<double>(config.balance_delta) / 2.0;
  const double hi =
      arena.config().target_size + static_cast<double>(config.balance_delta) / 2.0;
  double cost = arena.cost();
  for (int sweep = 0; sweep < 10; sweep++) {
    const int moved = arena.RunKWaySweep(3);
    ASSERT_LE(arena.cost(), cost);
    cost = arena.cost();
    EXPECT_LE(arena.MaxSizeImbalance(), hi - lo + 1e-9);
    if (moved == 0) {
      break;
    }
  }
  EXPECT_EQ(arena.cost(), arena.RecomputeCost());
}

TEST(ChurnedGraphTest, DeterministicAndCrossCluster) {
  Rng r1(13);
  Rng r2(13);
  const WeightedGraph g1 = MakeChurnedClusteredGraph(10, 8, 2.0, 0.4, &r1);
  const WeightedGraph g2 = MakeChurnedClusteredGraph(10, 8, 2.0, 0.4, &r2);
  EXPECT_EQ(g1.num_vertices(), 80u);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  EXPECT_GT(g1.num_edges(), 10u * 8u * 7u / 2u);  // churn added cross edges
  // Same seed, same graph — edge-for-edge.
  for (VertexId v : g1.Vertices()) {
    for (const auto& [u, w] : g1.NeighborsOf(v)) {
      ASSERT_TRUE(g2.NeighborsOf(v).contains(u));
      ASSERT_EQ(w, g2.NeighborsOf(v).at(u));
    }
  }
}

// Cross-stdlib determinism: the arena's decisions are a pure function of
// the (graph, config, seed) triple because every iteration it performs is
// over dense or sorted storage. These digests were baked on first
// implementation; a change means the data plane's decision stream moved.
TEST(ArenaDeterminismTest, BakedAssignmentDigests) {
  uint64_t digests[3] = {0, 0, 0};
  {
    Rng grng(7);
    const WeightedGraph g = MakeClusteredGraph(50, 8, 4.0, 100, 1.0, &grng);
    const CsrGraph csr = CsrFromWeighted(g);
    RepartitionArena arena(&csr, 8, PairwiseConfig{}, 42);
    for (int i = 0; i < 3; i++) {
      arena.RunPairwiseSweep();
    }
    digests[0] = arena.AssignmentDigest();
  }
  {
    Rng grng(11);
    const WeightedGraph g = MakeChurnedClusteredGraph(40, 8, 2.0, 0.3, &grng);
    const CsrGraph csr = CsrFromWeighted(g);
    RepartitionArena arena(&csr, 5, PairwiseConfig{}, 9);
    for (int i = 0; i < 3; i++) {
      arena.RunKWaySweep(3);
    }
    digests[1] = arena.AssignmentDigest();
  }
  {
    Rng grng(19);
    const WeightedGraph g = MakeRandomGraph(300, 1200, 4.0, &grng);
    const CsrGraph csr = CsrFromWeighted(g);
    RepartitionArena arena(&csr, 6, PairwiseConfig{}, 31);
    arena.RunObrThresholdSweep(0.25);
    arena.RunStreamingRefineSweep(0.25);
    arena.RunPairwiseSweep();
    digests[2] = arena.AssignmentDigest();
  }
  EXPECT_EQ(digests[0], 4264941578178391605ULL);
  EXPECT_EQ(digests[1], 16320128523214697866ULL);
  EXPECT_EQ(digests[2], 17279368050261467176ULL);
}

}  // namespace
}  // namespace actop
