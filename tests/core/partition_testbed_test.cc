#include "oracles/partition_testbed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "src/common/rng.h"

namespace actop {
namespace {

TEST(WeightedGraphTest, SymmetricEdges) {
  WeightedGraph g;
  g.AddEdge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(g.NeighborsOf(1).at(2), 3.0);
  EXPECT_DOUBLE_EQ(g.NeighborsOf(2).at(1), 3.0);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(WeightedGraphTest, ParallelEdgesAccumulate) {
  WeightedGraph g;
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(1, 2, 2.5);
  EXPECT_DOUBLE_EQ(g.NeighborsOf(1).at(2), 3.5);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(WeightedGraphTest, ClusteredGeneratorShape) {
  Rng rng(1);
  WeightedGraph g = MakeClusteredGraph(10, 9, 1.0, 50, 0.1, &rng);
  EXPECT_EQ(g.num_vertices(), 90u);
  // Each cluster is a 9-clique: 10 * 36 intra edges at least.
  EXPECT_GE(g.num_edges(), 360u);
}

struct TestbedCase {
  int clusters;
  int cluster_size;
  int servers;
  uint64_t seed;
};

class TheoremOneTest : public ::testing::TestWithParam<TestbedCase> {};

TEST_P(TheoremOneTest, MonotoneCostAndConvergence) {
  const TestbedCase tc = GetParam();
  Rng rng(tc.seed);
  WeightedGraph g = MakeClusteredGraph(tc.clusters, tc.cluster_size, 1.0,
                                       tc.clusters * 2, 0.05, &rng);
  PairwiseConfig config;
  config.candidate_set_size = 16;
  config.balance_delta = tc.cluster_size;  // one cluster of slack
  PartitionTestbed bed(&g, tc.servers, config, tc.seed);

  double prev_cost = bed.Cost();
  for (int sweep = 0; sweep < 200; sweep++) {
    int moved = 0;
    for (ServerId p = 0; p < bed.num_servers(); p++) {
      moved += bed.RunRound(p);
      const double cost = bed.Cost();
      EXPECT_LE(cost, prev_cost + 1e-9) << "cost increased at sweep " << sweep;
      prev_cost = cost;
    }
    // Balance invariant holds at every step.
    EXPECT_LE(bed.MaxImbalance(), config.balance_delta);
    if (moved == 0) {
      break;
    }
  }
  EXPECT_TRUE(bed.IsLocallyOptimal());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TheoremOneTest,
    ::testing::Values(TestbedCase{8, 6, 3, 11}, TestbedCase{12, 9, 4, 22},
                      TestbedCase{20, 5, 5, 33}, TestbedCase{6, 12, 2, 44}));

TEST(PartitionTestbedTest, ClusteredGraphReachesLowCut) {
  // With clusters of size 9 and servers holding multiples of 9 vertices,
  // the algorithm should co-locate nearly every cluster: residual cut is
  // dominated by the random inter-cluster edges.
  Rng rng(7);
  WeightedGraph g = MakeClusteredGraph(24, 9, 1.0, 0, 1.0, &rng);
  PairwiseConfig config;
  config.candidate_set_size = 32;
  config.balance_delta = 18;
  PartitionTestbed bed(&g, 4, config, 7);
  const double initial = bed.Cost();
  bed.RunToConvergence(500);
  const double final_cost = bed.Cost();
  // Random placement across 4 servers cuts ~3/4 of all edges; after
  // convergence almost everything should be internal.
  EXPECT_LT(final_cost, initial * 0.15);
}

TEST(PartitionTestbedTest, BalanceMaintainedOnSkewedGraph) {
  // A graph with one giant hub cluster tempts the partitioner to pile
  // everything on one server; δ must prevent that.
  WeightedGraph g;
  for (VertexId v = 2; v <= 200; v++) {
    g.AddEdge(1, v, 10.0);
  }
  PairwiseConfig config;
  config.candidate_set_size = 64;
  config.balance_delta = 10;
  PartitionTestbed bed(&g, 4, config, 3);
  bed.RunToConvergence(200);
  EXPECT_LE(bed.MaxImbalance(), 10);
}

TEST(PartitionTestbedTest, ConvergedStateIsStable) {
  Rng rng(5);
  WeightedGraph g = MakeClusteredGraph(10, 6, 1.0, 20, 0.1, &rng);
  PairwiseConfig config;
  config.candidate_set_size = 16;
  config.balance_delta = 12;
  PartitionTestbed bed(&g, 3, config, 5);
  bed.RunToConvergence(300);
  const double cost = bed.Cost();
  const int64_t migrations = bed.total_migrations();
  // Further sweeps change nothing.
  for (ServerId p = 0; p < bed.num_servers(); p++) {
    EXPECT_EQ(bed.RunRound(p), 0);
  }
  EXPECT_DOUBLE_EQ(bed.Cost(), cost);
  EXPECT_EQ(bed.total_migrations(), migrations);
}

TEST(PartitionTestbedTest, DeterministicForSeed) {
  Rng rng1(9);
  WeightedGraph g1 = MakeClusteredGraph(8, 6, 1.0, 10, 0.2, &rng1);
  Rng rng2(9);
  WeightedGraph g2 = MakeClusteredGraph(8, 6, 1.0, 10, 0.2, &rng2);
  PairwiseConfig config;
  config.candidate_set_size = 8;
  config.balance_delta = 8;
  PartitionTestbed a(&g1, 3, config, 123);
  PartitionTestbed b(&g2, 3, config, 123);
  a.RunToConvergence(100);
  b.RunToConvergence(100);
  EXPECT_DOUBLE_EQ(a.Cost(), b.Cost());
  EXPECT_EQ(a.total_migrations(), b.total_migrations());
}

TEST(PartitionTestbedTest, InsertionOrderDoesNotAffectDecisions) {
  // The testbed's planning order is canonical (ascending vertex id via
  // SampledMembers), so two graphs with identical topology but different
  // edge-insertion orders must produce byte-identical runs. Weights are
  // dyadic so per-vertex summation order cannot perturb any score either.
  Rng rng(31);
  std::vector<std::tuple<VertexId, VertexId, double>> edges;
  for (int c = 0; c < 12; c++) {
    for (int i = 0; i < 6; i++) {
      for (int j = i + 1; j < 6; j++) {
        edges.emplace_back(c * 6 + i + 1, c * 6 + j + 1, 1.0);
      }
    }
  }
  for (int e = 0; e < 60; e++) {
    const auto a = static_cast<VertexId>(rng.NextInt(1, 72));
    const auto b = static_cast<VertexId>(rng.NextInt(1, 72));
    if (a != b) {
      edges.emplace_back(a, b, 0.25);
    }
  }
  WeightedGraph forward;
  for (const auto& [a, b, w] : edges) {
    forward.AddEdge(a, b, w);
  }
  WeightedGraph shuffled;
  std::vector<size_t> order(edges.size());
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  for (size_t idx : order) {
    const auto& [a, b, w] = edges[idx];
    shuffled.AddEdge(b, a, w);  // also flip endpoints: the graph is symmetric
  }

  PairwiseConfig config;
  config.candidate_set_size = 8;
  config.balance_delta = 6;
  PartitionTestbed x(&forward, 4, config, 55);
  PartitionTestbed y(&shuffled, 4, config, 55);
  for (int sweep = 0; sweep < 40; sweep++) {
    int moved = 0;
    for (ServerId p = 0; p < 4; p++) {
      const int mx = x.RunRound(p);
      ASSERT_EQ(mx, y.RunRound(p)) << "sweep " << sweep << " server " << p;
      moved += mx;
    }
    for (VertexId v = 1; v <= 72; v++) {
      ASSERT_EQ(x.LocationOf(v), y.LocationOf(v)) << "sweep " << sweep;
    }
    ASSERT_EQ(x.Cost(), y.Cost()) << "sweep " << sweep;
    if (moved == 0) {
      break;
    }
  }
  EXPECT_EQ(x.total_migrations(), y.total_migrations());
}

TEST(PartitionTestbedTest, SampledMembersAreSortedPerServer) {
  Rng rng(41);
  WeightedGraph g = MakeRandomGraph(120, 400, 1.0, &rng);
  PairwiseConfig config;
  PartitionTestbed bed(&g, 5, config, 7);
  for (ServerId p = 0; p < 5; p++) {
    const auto members = bed.SampledMembers(p);
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end())) << "server " << p;
  }
}

TEST(PartitionTestbedTest, UnilateralConvergesSlowerOrWorse) {
  // §4.2: unilateral migration converges slower and yields higher cost or
  // imbalance than the pairwise protocol. Compare both on the same graph.
  Rng rng(13);
  WeightedGraph g = MakeClusteredGraph(16, 8, 1.0, 30, 0.2, &rng);
  PairwiseConfig config;
  config.candidate_set_size = 24;
  config.balance_delta = 16;

  PartitionTestbed pairwise(&g, 4, config, 77);
  pairwise.RunToConvergence(300);

  PartitionTestbed unilateral(&g, 4, config, 77);
  for (int sweep = 0; sweep < 300; sweep++) {
    if (unilateral.RunUnilateralSweep() == 0) {
      break;
    }
  }
  const bool worse_cost = unilateral.Cost() > pairwise.Cost() * 1.05;
  const bool worse_balance = unilateral.MaxImbalance() > pairwise.MaxImbalance();
  const bool more_migrations = unilateral.total_migrations() > pairwise.total_migrations();
  EXPECT_TRUE(worse_cost || worse_balance || more_migrations);
}

TEST(PartitionTestbedTest, ServerSizesSumToVertexCount) {
  Rng rng(21);
  WeightedGraph g = MakeRandomGraph(100, 300, 2.0, &rng);
  PairwiseConfig config;
  PartitionTestbed bed(&g, 5, config, 2);
  bed.RunToConvergence(100);
  const auto sizes = bed.ServerSizes();
  const int64_t total = std::accumulate(sizes.begin(), sizes.end(), int64_t{0});
  EXPECT_EQ(total, static_cast<int64_t>(g.num_vertices()));
}

}  // namespace
}  // namespace actop
