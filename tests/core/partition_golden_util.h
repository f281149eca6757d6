// Shared instance generators + digests for the partitioning golden tests.
//
// The baked-in golden digests in exchange_golden_test.cc and
// streaming_partitioner_test.cc were produced by running these exact
// generators against the seed implementations (std::map-bucketed SpaceSaving,
// lazy-deletion GreedyHeap DecideExchange, allocating Place) at commit
// d1a9574, so the tests prove the rewritten hot paths make byte-identical
// decisions. Everything here is deliberately container-iteration-order
// independent: instances are built by insertion only, and digests sort before
// hashing. All weights/scores/sizes are dyadic rationals (multiples of 1/8),
// so floating-point sums are exact and reassociation cannot perturb a digest.

#ifndef TESTS_CORE_PARTITION_GOLDEN_UTIL_H_
#define TESTS_CORE_PARTITION_GOLDEN_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "oracles/local_graph_planner.h"
#include "src/common/rng.h"

namespace actop {

// FNV-1a over 64-bit words; doubles hash by bit pattern (exact match only).
struct GoldenDigest {
  uint64_t h = 0xcbf29ce484222325ULL;

  void U64(uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    U64(bits);
  }
};

// A dyadic rational in [lo, hi] with 1/8 granularity: exactly representable,
// and sums of many of them are still exact doubles.
inline double NextDyadic(Rng* rng, double lo, double hi) {
  const auto steps = static_cast<uint64_t>((hi - lo) * 8.0);
  return lo + static_cast<double>(rng->NextBounded(steps + 1)) / 8.0;
}

// Candidate edges in vertex order, independent of the container's own
// iteration order (works for both the seed's unordered_map and the flat
// sorted representation).
inline std::vector<std::pair<VertexId, CandidateEdge>> GoldenSortedEdges(const Candidate& c) {
  std::vector<std::pair<VertexId, CandidateEdge>> out;
  for (const auto& [u, e] : c.edges) {
    out.emplace_back(u, e);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

struct GoldenExchangeInstance {
  LocalGraphView q_view;
  ExchangeRequest request;
  PairwiseConfig config;
};

// Randomized q-side view + p's offer, mirroring pairwise_fuzz_test.cc but with
// dyadic weights and optional sized-actor / migration-cost / size-budget
// configs so every §4.2 extension path is covered by the goldens.
inline GoldenExchangeInstance MakeGoldenExchangeInstance(uint64_t seed) {
  Rng rng(seed);
  GoldenExchangeInstance gi;
  const int num_servers = static_cast<int>(rng.NextInt(2, 8));
  const ServerId q = 1;
  const ServerId p = 0;
  const bool sized = rng.NextBool(0.3);

  gi.q_view.self = q;
  const int q_vertices = static_cast<int>(rng.NextInt(5, 60));
  gi.q_view.num_local_vertices = q_vertices;
  double q_total_size = 0.0;
  for (int i = 0; i < q_vertices; i++) {
    const VertexId v = 1000 + static_cast<VertexId>(i);
    double vsize = 1.0;
    if (sized) {
      vsize = NextDyadic(&rng, 0.5, 4.0);
      gi.q_view.vertex_size[v] = vsize;
    }
    q_total_size += vsize;
    if (!rng.NextBool(0.7)) {
      continue;  // not every vertex has sampled edges
    }
    VertexAdjacency adj;
    const int degree = static_cast<int>(rng.NextInt(1, 6));
    for (int d = 0; d < degree; d++) {
      const VertexId u = rng.NextBool(0.4)
                             ? 1000 + static_cast<VertexId>(rng.NextInt(0, q_vertices - 1))
                             : static_cast<VertexId>(rng.NextInt(1, 200));
      if (u == v) {
        continue;
      }
      adj[u] = NextDyadic(&rng, 0.125, 10.0);
      if (u < 1000) {
        gi.q_view.location[u] = static_cast<ServerId>(rng.NextBounded(num_servers));
      }
    }
    if (!adj.empty()) {
      gi.q_view.adjacency[v] = std::move(adj);
    }
  }
  if (sized) {
    gi.q_view.total_local_size = q_total_size;
  }

  gi.request.from = p;
  gi.request.from_num_vertices = static_cast<int64_t>(rng.NextInt(5, 60));
  if (sized) {
    gi.request.from_total_size =
        static_cast<double>(gi.request.from_num_vertices) + NextDyadic(&rng, 0.0, 8.0);
  }
  const int offers = static_cast<int>(rng.NextInt(1, 14));
  for (int i = 0; i < offers; i++) {
    Candidate c;
    c.vertex = static_cast<VertexId>(rng.NextInt(1, 200));
    c.score = NextDyadic(&rng, -2.0, 8.0);
    if (sized) {
      c.size = NextDyadic(&rng, 0.5, 4.0);
    }
    const int degree = static_cast<int>(rng.NextInt(1, 5));
    for (int d = 0; d < degree; d++) {
      const VertexId u = rng.NextBool(0.3)
                             ? 1000 + static_cast<VertexId>(rng.NextInt(0, q_vertices - 1))
                             : static_cast<VertexId>(rng.NextInt(1, 200));
      if (u == c.vertex) {
        continue;
      }
      c.edges.emplace(u, CandidateEdge{NextDyadic(&rng, 0.125, 10.0),
                                       static_cast<ServerId>(rng.NextBounded(num_servers))});
    }
    gi.request.candidates.push_back(std::move(c));
  }

  gi.config.candidate_set_size = static_cast<size_t>(rng.NextInt(1, 16));
  gi.config.balance_delta = rng.NextInt(0, 30);
  if (rng.NextBool(0.5)) {
    gi.config.target_size =
        static_cast<double>(gi.request.from_num_vertices + q_vertices) / 2.0;
  }
  if (rng.NextBool(0.3)) {
    gi.config.migration_cost_weight = NextDyadic(&rng, 0.0, 0.5);
  }
  if (rng.NextBool(0.3)) {
    gi.config.max_candidate_total_size = NextDyadic(&rng, 1.0, 16.0);
  }
  return gi;
}

// Digest of everything observable about a peer-plan set: peer ranking, per-
// candidate ordering, scores, sizes and edge payloads (with location hints).
inline void DigestPlans(const std::vector<PeerPlan>& plans, GoldenDigest* d) {
  d->U64(plans.size());
  for (const PeerPlan& plan : plans) {
    d->I64(plan.peer);
    d->F64(plan.total_score);
    d->U64(plan.candidates.size());
    for (const Candidate& c : plan.candidates) {
      d->U64(c.vertex);
      d->F64(c.score);
      d->F64(c.size);
      for (const auto& [u, e] : GoldenSortedEdges(c)) {
        d->U64(u);
        d->F64(e.weight);
        d->I64(e.location_hint);
      }
    }
  }
}

inline void DigestDecision(const ExchangeDecision& decision, GoldenDigest* d) {
  d->U64(decision.accepted.size());
  for (VertexId v : decision.accepted) {
    d->U64(v);
  }
  d->U64(decision.counter_offer.size());
  for (const Candidate& c : decision.counter_offer) {
    d->U64(c.vertex);
    d->F64(c.score);
    d->F64(c.size);
    for (const auto& [u, e] : GoldenSortedEdges(c)) {
      d->U64(u);
      d->F64(e.weight);
      d->I64(e.location_hint);
    }
  }
}

// Full golden digest for one seed: q's own plans plus the joint decision.
inline uint64_t ExchangeGoldenDigest(uint64_t seed) {
  const GoldenExchangeInstance gi = MakeGoldenExchangeInstance(seed);
  GoldenDigest d;
  DigestPlans(BuildPeerPlans(gi.q_view, gi.config), &d);
  DigestDecision(DecideExchange(gi.q_view, gi.request, gi.config), &d);
  return d.h;
}

}  // namespace actop

#endif  // TESTS_CORE_PARTITION_GOLDEN_UTIL_H_
