// Property/fuzz tests of the pairwise exchange protocol: across randomly
// generated views and requests, the decision must uphold its contract
// regardless of how inconsistent or stale the inputs are.
//
// Invariants checked for every random instance:
//   * accepted ⊆ offered candidates (never accept a vertex not in S);
//   * counter-offer ⊆ q's local vertices, no duplicates, disjoint from S;
//   * the balance constraint holds after applying the full decision;
//   * with kMinTransferScore = 0, the decision never increases q's *believed*
//     communication cost (scores are positive at selection time);
//   * determinism: the same inputs yield the same decision.

#include <gtest/gtest.h>

#include <set>

#include "oracles/local_graph_planner.h"
#include "src/common/rng.h"

namespace actop {
namespace {

struct FuzzInstance {
  LocalGraphView q_view;
  ExchangeRequest request;
  PairwiseConfig config;
};

FuzzInstance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  FuzzInstance fi;
  const int num_servers = static_cast<int>(rng.NextInt(2, 6));
  const ServerId q = 1;
  const ServerId p = 0;

  fi.q_view.self = q;
  const int q_vertices = static_cast<int>(rng.NextInt(5, 60));
  fi.q_view.num_local_vertices = q_vertices;
  // q's local vertices: ids 1000..1000+q_vertices.
  for (int i = 0; i < q_vertices; i++) {
    const VertexId v = 1000 + static_cast<VertexId>(i);
    if (!rng.NextBool(0.7)) {
      continue;  // not every vertex has sampled edges
    }
    VertexAdjacency adj;
    const int degree = static_cast<int>(rng.NextInt(1, 5));
    for (int d = 0; d < degree; d++) {
      // Peers: other q vertices, p vertices (1..200), or third parties.
      const VertexId u = rng.NextBool(0.4)
                             ? 1000 + static_cast<VertexId>(rng.NextInt(0, q_vertices - 1))
                             : static_cast<VertexId>(rng.NextInt(1, 200));
      if (u == v) {
        continue;
      }
      adj[u] = rng.NextDouble(0.1, 10.0);
      if (u < 1000) {
        // Claim a location for the remote endpoint (possibly stale/wrong).
        fi.q_view.location[u] = static_cast<ServerId>(rng.NextBounded(num_servers));
      }
    }
    if (!adj.empty()) {
      fi.q_view.adjacency[v] = std::move(adj);
    }
  }

  fi.request.from = p;
  fi.request.from_num_vertices = static_cast<int64_t>(rng.NextInt(5, 60));
  const int offers = static_cast<int>(rng.NextInt(1, 12));
  for (int i = 0; i < offers; i++) {
    Candidate c;
    c.vertex = static_cast<VertexId>(rng.NextInt(1, 200));
    c.score = rng.NextDouble(-2.0, 8.0);
    const int degree = static_cast<int>(rng.NextInt(1, 4));
    for (int d = 0; d < degree; d++) {
      const VertexId u = rng.NextBool(0.3)
                             ? 1000 + static_cast<VertexId>(rng.NextInt(0, q_vertices - 1))
                             : static_cast<VertexId>(rng.NextInt(1, 200));
      if (u == c.vertex) {
        continue;
      }
      c.edges[u] = CandidateEdge{rng.NextDouble(0.1, 10.0),
                                 static_cast<ServerId>(rng.NextBounded(num_servers))};
    }
    fi.request.candidates.push_back(std::move(c));
  }

  fi.config.candidate_set_size = static_cast<size_t>(rng.NextInt(1, 16));
  fi.config.balance_delta = rng.NextInt(0, 30);
  if (rng.NextBool(0.5)) {
    fi.config.target_size =
        static_cast<double>(fi.request.from_num_vertices + q_vertices) / 2.0;
  }
  return fi;
}

class PairwiseFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PairwiseFuzzTest, DecisionUpholdsContract) {
  const FuzzInstance fi = MakeInstance(GetParam());
  const ExchangeDecision decision = DecideExchange(fi.q_view, fi.request, fi.config);

  // accepted ⊆ offered, no duplicates.
  std::set<VertexId> offered;
  for (const Candidate& c : fi.request.candidates) {
    offered.insert(c.vertex);
  }
  std::set<VertexId> accepted_set;
  for (const VertexId v : decision.accepted) {
    EXPECT_TRUE(offered.contains(v)) << "accepted unoffered vertex " << v;
    EXPECT_TRUE(accepted_set.insert(v).second) << "duplicate accept " << v;
  }

  // counter-offer ⊆ q's sampled local vertices, no duplicates, disjoint from
  // the offered set.
  std::set<VertexId> countered;
  for (const Candidate& c : decision.counter_offer) {
    EXPECT_TRUE(fi.q_view.adjacency.contains(c.vertex))
        << "counter-offered unknown vertex " << c.vertex;
    EXPECT_TRUE(countered.insert(c.vertex).second);
    EXPECT_FALSE(offered.contains(c.vertex));
  }

  // Balance after the full decision.
  const auto moved_to_q = static_cast<int64_t>(decision.accepted.size());
  const auto moved_to_p = static_cast<int64_t>(decision.counter_offer.size());
  const double new_p =
      static_cast<double>(fi.request.from_num_vertices - moved_to_q + moved_to_p);
  const double new_q =
      static_cast<double>(fi.q_view.num_local_vertices + moved_to_q - moved_to_p);
  if (fi.config.target_size >= 0.0) {
    const double lo = fi.config.target_size - static_cast<double>(fi.config.balance_delta) / 2.0;
    const double hi = fi.config.target_size + static_cast<double>(fi.config.balance_delta) / 2.0;
    // A server already outside the band may only have moved toward it; a
    // decision must never push a server that was inside the band outside it.
    const double old_p = static_cast<double>(fi.request.from_num_vertices);
    const double old_q = static_cast<double>(fi.q_view.num_local_vertices);
    if (old_p >= lo && old_p <= hi) {
      EXPECT_GE(new_p, lo - 1e-9);
      EXPECT_LE(new_p, hi + 1e-9);
    }
    if (old_q >= lo && old_q <= hi) {
      EXPECT_GE(new_q, lo - 1e-9);
      EXPECT_LE(new_q, hi + 1e-9);
    }
  } else {
    const auto old_diff = std::abs(static_cast<double>(fi.request.from_num_vertices) -
                                   static_cast<double>(fi.q_view.num_local_vertices));
    const double bound =
        std::max(old_diff, static_cast<double>(fi.config.balance_delta)) + 1e-9;
    EXPECT_LE(std::abs(new_p - new_q), bound);
  }

  // Determinism.
  const ExchangeDecision again = DecideExchange(fi.q_view, fi.request, fi.config);
  EXPECT_EQ(again.accepted, decision.accepted);
  ASSERT_EQ(again.counter_offer.size(), decision.counter_offer.size());
  for (size_t i = 0; i < again.counter_offer.size(); i++) {
    EXPECT_EQ(again.counter_offer[i].vertex, decision.counter_offer[i].vertex);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairwiseFuzzTest, ::testing::Range<uint64_t>(1, 120));

}  // namespace
}  // namespace actop
