// The map-based LocalGraphView planner: the pairwise exchange of §4.2
// (Alg. 1 in the paper) as three pure functions over node-based hash maps.
//
// Each server holds a LocalGraphView: its (sampled) weighted adjacency for
// local vertices plus the last-known server of every referenced remote
// vertex.
//
//   BuildPeerPlans   — p computes, for each peer q, the candidate set S of
//                      its top-k vertices by transfer score Rp,q(v) and ranks
//                      peers by total score (§ "Determining the candidate set").
//   DecideExchange   — q accepts/rejects subsets: builds its own candidate
//                      set T toward p, then greedily and jointly picks
//                      S0 ⊆ S, T0 ⊆ T with two max-heaps, updating scores
//                      after every pick and enforcing the balance constraint
//                      ||V_p| − |V_q|| ≤ δ (§ "Determining exchange subsets").
//   TransferScore    — Rp,q(v) = Σ_{u∈V_q} w(v,u) − Σ_{u∈V_p} w(v,u).
//
// Test/bench-only (library actop_oracles; nothing under src/ links it). The
// static-graph testbed (partition_testbed.h) drives these directly to
// validate Theorem 1. The runtime's PartitionAgent
// (src/runtime/partition_agent.h) runs the same algorithm through the CSR
// arena (src/core/repartition_arena.h), byte-identical to the *Ordered entry
// points (tests/runtime/arena_planner_test.cc).

#ifndef ORACLES_LOCAL_GRAPH_PLANNER_H_
#define ORACLES_LOCAL_GRAPH_PLANNER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/core/csr_graph.h"
#include "src/core/pairwise_partition.h"

namespace actop {

// Sparse weighted adjacency of one vertex: peer vertex -> edge weight.
using VertexAdjacency = std::unordered_map<VertexId, double>;

// What one server knows about the communication graph (possibly sampled and
// partially stale).
struct LocalGraphView {
  ServerId self = kNoServer;
  // Total number of local vertices (actors) — NOT just the sampled ones; the
  // balance constraint is on actor counts (or on total size, below).
  int64_t num_local_vertices = 0;
  // Sampled adjacency for local vertices that have observed edges.
  std::unordered_map<VertexId, VertexAdjacency> adjacency;
  // Last-known location of every vertex referenced in `adjacency` (remote
  // endpoints; local vertices may be omitted and default to `self`).
  std::unordered_map<VertexId, ServerId> location;

  // §4.2 extension — heterogeneous actors: per-vertex sizes (memory/compute
  // footprint) for local vertices. Empty = every vertex has size 1. When
  // used, `total_local_size` must be the sum over ALL local vertices.
  std::unordered_map<VertexId, double> vertex_size;
  double total_local_size = -1.0;  // < 0: use num_local_vertices

  // Location lookup with local default.
  ServerId LocationOf(VertexId v) const;
  // Size lookup with default 1.
  double SizeOf(VertexId v) const;
  // Total size (falls back to the vertex count for unit-size graphs).
  double TotalSize() const;
};

// Rp,q(v) for a local vertex v of `view` toward server q.
double TransferScore(const LocalGraphView& view, VertexId v, ServerId q);

// Builds per-peer candidate plans for `view`, sorted by total score
// descending. Peers with no positive-score candidates are omitted.
std::vector<PeerPlan> BuildPeerPlans(const LocalGraphView& view, const PairwiseConfig& config);

// As BuildPeerPlans, but visits local vertices in exactly the order given by
// `order` (vertices absent from view.adjacency are skipped). The hash-map
// path above iterates view.adjacency in container order, which is a
// libstdc++ implementation detail; pinning the visit order makes top-k
// tie-breaking — and therefore the emitted plans — byte-stable across
// standard-library versions and reproducible by the flat CSR arena, which
// always scans vertices in ascending-id order.
std::vector<PeerPlan> BuildPeerPlansOrdered(const LocalGraphView& view,
                                            const PairwiseConfig& config,
                                            const std::vector<VertexId>& order);

// q-side joint subset selection. `view` is q's local view; the request came
// from p. Never returns a decision that violates the balance constraint.
ExchangeDecision DecideExchange(const LocalGraphView& view, const ExchangeRequest& request,
                                const PairwiseConfig& config);

// As DecideExchange, but builds q's counter-candidate set T with
// BuildPeerPlansOrdered(view, config, order). Same stability rationale.
ExchangeDecision DecideExchangeOrdered(const LocalGraphView& view, const ExchangeRequest& request,
                                       const PairwiseConfig& config,
                                       const std::vector<VertexId>& order);

// Communication cost of a full partition: sum of weights of edges crossing
// servers. `locations` maps every vertex to its server; `adjacency` is the
// union (undirected) graph. Used by tests and the offline baseline.
double CutCost(const std::unordered_map<VertexId, VertexAdjacency>& adjacency,
               const std::unordered_map<VertexId, ServerId>& locations);

// Freezes an agent-sampled LocalGraphView into a CsrGraph: the vertex set is
// the view's local vertices plus every referenced neighbor, but only local
// vertices carry adjacency spans — remote endpoints get empty spans. The
// result is therefore NOT symmetric: it supports the arena's planning scans
// (which only read spans of the initiating server's vertices) and nothing
// that maintains cut cost.
CsrGraph CsrFromLocalView(const LocalGraphView& view);

}  // namespace actop

#endif  // ORACLES_LOCAL_GRAPH_PLANNER_H_
