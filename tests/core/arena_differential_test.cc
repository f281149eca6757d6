// Byte-identity proof for the arena's pairwise data plane: the flat CSR
// implementation must make exactly the decisions the retained map-based
// PartitionTestbed makes, round for round — same vertices moved, same
// destinations, same per-server sizes, same cut cost.
//
// All weights are dyadic (multiples of 1/8, exact in double) so the two
// implementations' different per-vertex summation orders cannot perturb a
// score; this is the same convention the baked exchange goldens rely on
// (see partition_golden_util.h). Config extensions (§4.2 sized actors,
// migration costs, candidate size budgets) are fuzzed too so every branch
// of the shared planning/selection logic is covered differentially.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "oracles/partition_testbed.h"
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

struct FuzzInstance {
  WeightedGraph graph;
  int servers = 2;
  PairwiseConfig config;
  uint64_t placement_seed = 0;
  bool sized = false;
  std::unordered_map<VertexId, double> sizes;
};

FuzzInstance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  FuzzInstance fi;
  const int shape = static_cast<int>(rng.NextBounded(3));
  if (shape == 0) {
    fi.graph = MakeClusteredGraph(static_cast<int>(rng.NextInt(6, 20)),
                                  static_cast<int>(rng.NextInt(4, 8)),
                                  NextDyadic(&rng, 1.0, 4.0),
                                  static_cast<int>(rng.NextInt(20, 120)),
                                  NextDyadic(&rng, 0.125, 1.0), &rng);
  } else if (shape == 1) {
    fi.graph = MakeDyadicRandomGraph(static_cast<int>(rng.NextInt(40, 200)),
                                     static_cast<int>(rng.NextInt(80, 600)), &rng);
  } else {
    fi.graph = MakeChurnedClusteredGraph(static_cast<int>(rng.NextInt(6, 16)),
                                         static_cast<int>(rng.NextInt(4, 8)),
                                         NextDyadic(&rng, 1.0, 4.0),
                                         0.25, &rng);
  }
  fi.servers = static_cast<int>(rng.NextInt(2, 8));
  fi.config.candidate_set_size = static_cast<size_t>(rng.NextInt(2, 32));
  fi.config.balance_delta = rng.NextInt(2, 24);
  if (rng.NextBool(0.3)) {
    fi.config.migration_cost_weight = NextDyadic(&rng, 0.0, 0.5);
  }
  if (rng.NextBool(0.3)) {
    fi.config.max_candidate_total_size = NextDyadic(&rng, 2.0, 24.0);
  }
  fi.placement_seed = rng.NextU64();
  fi.sized = rng.NextBool(0.3);
  if (fi.sized) {
    for (VertexId v : fi.graph.Vertices()) {
      fi.sizes[v] = NextDyadic(&rng, 0.5, 3.0);
    }
  }
  return fi;
}

void ExpectSameState(const PartitionTestbed& testbed, const RepartitionArena& arena,
                     const std::vector<VertexId>& vertices, uint64_t seed, int sweep) {
  for (VertexId v : vertices) {
    ASSERT_EQ(testbed.LocationOf(v), arena.LocationOf(v))
        << "seed " << seed << " sweep " << sweep << " vertex " << v;
  }
  ASSERT_EQ(testbed.ServerSizes(), arena.ServerSizes()) << "seed " << seed;
  ASSERT_EQ(testbed.total_migrations(), arena.total_migrations()) << "seed " << seed;
  // Dyadic weights: exact equality between the testbed's O(E) recompute and
  // the arena's incrementally maintained cut.
  ASSERT_EQ(testbed.Cost(), arena.cost()) << "seed " << seed << " sweep " << sweep;
}

TEST(ArenaDifferentialTest, PairwiseRoundsAreByteIdenticalToTestbed) {
  for (uint64_t seed = 1; seed <= 30; seed++) {
    const FuzzInstance fi = MakeInstance(seed);
    const CsrGraph csr = CsrFromWeighted(fi.graph);
    PartitionTestbed testbed(&fi.graph, fi.servers, fi.config, fi.placement_seed);
    RepartitionArena arena(&csr, fi.servers, fi.config, fi.placement_seed);
    if (fi.sized) {
      testbed.SetVertexSizes(fi.sizes);
      arena.SetVertexSizes(fi.sizes);
    }
    const std::vector<VertexId> vertices = fi.graph.Vertices();
    ExpectSameState(testbed, arena, vertices, seed, 0);
    bool converged = false;
    for (int sweep = 1; sweep <= 8 && !converged; sweep++) {
      int tb_moved = 0;
      for (ServerId p = 0; p < fi.servers; p++) {
        const int tb = testbed.RunRound(p);
        const int ar = arena.RunPairwiseRound(p);
        ASSERT_EQ(tb, ar) << "seed " << seed << " sweep " << sweep << " server " << p;
        tb_moved += tb;
      }
      ExpectSameState(testbed, arena, vertices, seed, sweep);
      converged = tb_moved == 0;
    }
  }
}

TEST(ArenaDifferentialTest, ConvergenceIsByteIdenticalToTestbed) {
  for (uint64_t seed = 100; seed <= 112; seed++) {
    const FuzzInstance fi = MakeInstance(seed);
    const CsrGraph csr = CsrFromWeighted(fi.graph);
    PartitionTestbed testbed(&fi.graph, fi.servers, fi.config, fi.placement_seed);
    RepartitionArena arena(&csr, fi.servers, fi.config, fi.placement_seed);
    if (fi.sized) {
      testbed.SetVertexSizes(fi.sizes);
      arena.SetVertexSizes(fi.sizes);
    }
    const int tb_sweeps = testbed.RunToConvergence(50);
    const int ar_sweeps = arena.RunToConvergence(50);
    ASSERT_EQ(tb_sweeps, ar_sweeps) << "seed " << seed;
    ExpectSameState(testbed, arena, fi.graph.Vertices(), seed, tb_sweeps);
    EXPECT_EQ(testbed.IsLocallyOptimal(), arena.IsLocallyOptimal()) << "seed " << seed;
  }
}

// The unilateral ablation shares the planning path but not the joint
// selection; mirror it too so the snapshot/apply mechanics stay in lockstep.
TEST(ArenaDifferentialTest, UnilateralSweepMatchesTestbed) {
  for (uint64_t seed = 200; seed <= 212; seed++) {
    const FuzzInstance fi = MakeInstance(seed);
    const CsrGraph csr = CsrFromWeighted(fi.graph);
    PartitionTestbed testbed(&fi.graph, fi.servers, fi.config, fi.placement_seed);
    RepartitionArena arena(&csr, fi.servers, fi.config, fi.placement_seed);
    if (fi.sized) {
      testbed.SetVertexSizes(fi.sizes);
      arena.SetVertexSizes(fi.sizes);
    }
    for (int sweep = 1; sweep <= 4; sweep++) {
      const int tb = testbed.RunUnilateralSweep();
      const auto ar = static_cast<int>(arena.RunGreedyUnilateralSweep());
      ASSERT_EQ(tb, ar) << "seed " << seed << " sweep " << sweep;
      ExpectSameState(testbed, arena, fi.graph.Vertices(), seed, sweep);
    }
  }
}

}  // namespace
}  // namespace actop
