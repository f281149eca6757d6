#include "oracles/offline_partitioner.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "oracles/partition_testbed.h"
#include "src/common/rng.h"

namespace actop {
namespace {

TEST(OfflinePartitionerTest, AssignsEveryVertex) {
  Rng rng(1);
  WeightedGraph g = MakeRandomGraph(50, 150, 1.0, &rng);
  const auto result = OfflinePartition(g, 4, 4);
  EXPECT_EQ(result.assignment.size(), g.num_vertices());
  for (const auto& [v, s] : result.assignment) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
}

TEST(OfflinePartitionerTest, BalanceWithinDelta) {
  Rng rng(2);
  WeightedGraph g = MakeRandomGraph(101, 400, 1.0, &rng);
  const int64_t delta = 6;
  const auto result = OfflinePartition(g, 4, delta);
  std::vector<int64_t> sizes(4, 0);
  for (const auto& [v, s] : result.assignment) {
    sizes[static_cast<size_t>(s)]++;
  }
  const auto [mn, mx] = std::minmax_element(sizes.begin(), sizes.end());
  // Initial BFS growth targets ceil(n/servers); refinement moves respect
  // delta. Allow the BFS rounding slack of 1 on top.
  EXPECT_LE(*mx - *mn, delta + 1);
}

TEST(OfflinePartitionerTest, SeparatesObviousClusters) {
  // Two disjoint cliques on two servers must be split cleanly: zero cut.
  WeightedGraph g;
  for (VertexId a = 1; a <= 8; a++) {
    for (VertexId b = a + 1; b <= 8; b++) {
      g.AddEdge(a, b, 1.0);
      g.AddEdge(a + 100, b + 100, 1.0);
    }
  }
  const auto result = OfflinePartition(g, 2, 2);
  EXPECT_DOUBLE_EQ(result.cut_cost, 0.0);
}

TEST(OfflinePartitionerTest, BeatsRandomAssignment) {
  Rng rng(3);
  WeightedGraph g = MakeClusteredGraph(20, 8, 1.0, 60, 0.3, &rng);
  const auto result = OfflinePartition(g, 4, 16);
  // Random baseline cut.
  std::unordered_map<VertexId, ServerId> random_assignment;
  Rng assign_rng(4);
  for (VertexId v : g.Vertices()) {
    random_assignment[v] = static_cast<ServerId>(assign_rng.NextBounded(4));
  }
  const double random_cut = CutCost(g.adjacency(), random_assignment);
  EXPECT_LT(result.cut_cost, random_cut * 0.5);
}

TEST(OfflinePartitionerTest, QualityComparableToDistributed) {
  // The distributed algorithm should land within ~2x of the centralized
  // baseline on clustered graphs (it has the same local-move structure).
  Rng rng(5);
  WeightedGraph g = MakeClusteredGraph(16, 9, 1.0, 40, 0.2, &rng);
  const auto offline = OfflinePartition(g, 4, 18);

  PairwiseConfig config;
  config.candidate_set_size = 32;
  config.balance_delta = 18;
  PartitionTestbed bed(&g, 4, config, 6);
  bed.RunToConvergence(300);

  EXPECT_LT(bed.Cost(), std::max(offline.cut_cost, 1.0) * 2.0 + 20.0);
}

TEST(OfflinePartitionerTest, TerminatesWithinPassLimit) {
  Rng rng(6);
  WeightedGraph g = MakeRandomGraph(200, 600, 1.0, &rng);
  const auto result = OfflinePartition(g, 4, 8, /*max_passes=*/5);
  EXPECT_LE(result.refinement_passes, 5);
}

}  // namespace
}  // namespace actop
