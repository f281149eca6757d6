// Tests of the §4.2 extension: heterogeneous actor sizes and migration
// costs. The paper sketches these ("add a term to the transfer score ...
// inversely proportional to the actor size; limit the candidate set by the
// sum of sizes; set δ to represent the allowed imbalance in total size") but
// leaves their evaluation out of scope — this suite validates our
// implementation of that sketch.

#include <gtest/gtest.h>

#include "oracles/local_graph_planner.h"
#include "oracles/partition_testbed.h"
#include "src/common/rng.h"

namespace actop {
namespace {

TEST(SizedPartitionTest, MigrationCostPenalizesLargeActors) {
  // Two vertices with identical communication pull; the heavier one must
  // score lower once migration costs are on.
  LocalGraphView view;
  view.self = 0;
  view.num_local_vertices = 2;
  view.adjacency[1] = {{10, 5.0}};
  view.adjacency[2] = {{11, 5.0}};
  view.location = {{10, 1}, {11, 1}};
  view.vertex_size = {{1, 1.0}, {2, 8.0}};
  view.total_local_size = 9.0;

  PairwiseConfig config;
  config.migration_cost_weight = 0.5;
  const auto plans = BuildPeerPlans(view, config);
  ASSERT_EQ(plans.size(), 1u);
  ASSERT_EQ(plans[0].candidates.size(), 2u);
  // Light vertex first: 5 − 0.5·1 = 4.5 beats 5 − 0.5·8 = 1.0.
  EXPECT_EQ(plans[0].candidates[0].vertex, 1u);
  EXPECT_NEAR(plans[0].candidates[0].score, 4.5, 1e-9);
  EXPECT_NEAR(plans[0].candidates[1].score, 1.0, 1e-9);
}

TEST(SizedPartitionTest, MigrationCostCanSuppressMoveEntirely) {
  LocalGraphView view;
  view.self = 0;
  view.num_local_vertices = 1;
  view.adjacency[1] = {{10, 3.0}};
  view.location = {{10, 1}};
  view.vertex_size = {{1, 10.0}};
  view.total_local_size = 10.0;

  PairwiseConfig config;
  config.migration_cost_weight = 0.5;  // cost 5.0 > gain 3.0
  EXPECT_TRUE(BuildPeerPlans(view, config).empty());
}

TEST(SizedPartitionTest, CandidateSetBoundedByTotalSize) {
  LocalGraphView view;
  view.self = 0;
  view.num_local_vertices = 4;
  double total = 0.0;
  for (VertexId v = 1; v <= 4; v++) {
    view.adjacency[v] = {{100 + v, static_cast<double>(10 - v)}};  // v=1 scores best
    view.location[100 + v] = 1;
    view.vertex_size[v] = 3.0;
    total += 3.0;
  }
  view.total_local_size = total;

  PairwiseConfig config;
  config.candidate_set_size = 10;
  config.max_candidate_total_size = 7.0;  // fits two 3.0-sized actors
  const auto plans = BuildPeerPlans(view, config);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].candidates.size(), 2u);
  EXPECT_EQ(plans[0].candidates[0].vertex, 1u);
  EXPECT_EQ(plans[0].candidates[1].vertex, 2u);
}

TEST(SizedPartitionTest, BalanceInSizeUnits) {
  // q is at its size capacity: accepting a big actor must be refused even
  // though vertex counts would allow it.
  LocalGraphView q_view;
  q_view.self = 1;
  q_view.num_local_vertices = 2;
  q_view.total_local_size = 20.0;

  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 10;
  request.from_total_size = 20.0;
  Candidate big;
  big.vertex = 1;
  big.size = 9.0;
  big.edges = {{50, {5.0, /*hint=*/1}}};
  request.candidates = {big};

  PairwiseConfig config;
  config.balance_delta = 8;  // band: 20 ± 4
  config.target_size = 20.0;
  const auto blocked = DecideExchange(q_view, request, config);
  EXPECT_TRUE(blocked.accepted.empty());

  // A smaller actor with the same pull is accepted.
  request.candidates[0].size = 2.0;
  const auto allowed = DecideExchange(q_view, request, config);
  EXPECT_EQ(allowed.accepted.size(), 1u);
}

TEST(SizedPartitionTest, TestbedKeepsSizeBalanceWithSkewedSizes) {
  Rng rng(5);
  WeightedGraph g = MakeClusteredGraph(30, 6, 1.0, 40, 0.2, &rng);
  PairwiseConfig config;
  config.candidate_set_size = 16;
  config.balance_delta = 30;  // size units
  PartitionTestbed bed(&g, 4, config, 5);

  // Pareto-ish sizes: a few heavy actors, many light ones.
  std::unordered_map<VertexId, double> sizes;
  Rng size_rng(6);
  for (VertexId v : g.Vertices()) {
    sizes[v] = size_rng.NextBool(0.1) ? 10.0 : 1.0;
  }
  bed.SetVertexSizes(std::move(sizes));

  const double initial_cost = bed.Cost();
  bed.RunToConvergence(300);
  EXPECT_LT(bed.Cost(), initial_cost * 0.6);
  EXPECT_LE(bed.MaxSizeImbalance(), 30.0 + 1e-9);
}

TEST(SizedPartitionTest, ProhibitiveMigrationCostFreezesPartition) {
  // The guaranteed property of the cost term: when cost_weight * size
  // exceeds any possible communication gain, nothing ever moves. (Moderate
  // weights trade cut quality against churn, but greedy local search is
  // path-dependent, so per-run migration counts are not monotone in the
  // weight — only the extremes are invariant.)
  Rng rng(9);
  WeightedGraph g = MakeClusteredGraph(24, 6, 1.0, 60, 0.3, &rng);

  auto run = [&](double cost_weight) {
    PairwiseConfig config;
    config.candidate_set_size = 16;
    config.balance_delta = 12;
    config.migration_cost_weight = cost_weight;
    PartitionTestbed bed(&g, 4, config, 9);
    std::unordered_map<VertexId, double> sizes;
    Rng size_rng(10);
    for (VertexId v : g.Vertices()) {
      sizes[v] = size_rng.NextDouble(0.5, 4.0);
    }
    bed.SetVertexSizes(std::move(sizes));
    bed.RunToConvergence(300);
    return bed;
  };

  const auto cheap = run(0.0);
  EXPECT_GT(cheap.total_migrations(), 0);
  // Max possible gain per vertex is its total incident weight (< 6 vertices
  // * 1.0 intra + extras); weight 100 over min size 0.5 dwarfs it.
  const auto frozen = run(100.0);
  EXPECT_EQ(frozen.total_migrations(), 0);
}

TEST(SizedPartitionTest, UniformSizesMatchUnsizedBehaviour) {
  // Setting every size to 1.0 must reproduce the unsized algorithm exactly.
  Rng rng(13);
  WeightedGraph g = MakeClusteredGraph(16, 6, 1.0, 20, 0.2, &rng);
  PairwiseConfig config;
  config.candidate_set_size = 16;
  config.balance_delta = 12;

  PartitionTestbed plain(&g, 4, config, 13);
  plain.RunToConvergence(200);

  PartitionTestbed sized(&g, 4, config, 13);
  std::unordered_map<VertexId, double> ones;
  for (VertexId v : g.Vertices()) {
    ones[v] = 1.0;
  }
  sized.SetVertexSizes(std::move(ones));
  sized.RunToConvergence(200);

  EXPECT_DOUBLE_EQ(plain.Cost(), sized.Cost());
  EXPECT_EQ(plain.total_migrations(), sized.total_migrations());
}

}  // namespace
}  // namespace actop
