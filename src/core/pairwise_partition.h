// The distributed balanced graph-partitioning algorithm of §4.2 — pure
// algorithm layer, independent of the simulator and the actor runtime.
//
// Each server holds a LocalGraphView: its (sampled) weighted adjacency for
// local vertices plus the last-known server of every referenced remote
// vertex. The pairwise coordination protocol (Alg. 1 in the paper) is
// expressed as three pure functions:
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
// The static-graph test harness (partition_testbed.h) drives these directly
// to validate Theorem 1. The runtime's PartitionAgent
// (src/runtime/partition_agent.h) runs the same algorithm through the CSR
// arena (repartition_arena.h), byte-identical to the *Ordered entry points.

#ifndef SRC_CORE_PAIRWISE_PARTITION_H_
#define SRC_CORE_PAIRWISE_PARTITION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/ids.h"
#include "src/common/pool_allocator.h"

namespace actop {

// Sparse weighted adjacency of one vertex: peer vertex -> edge weight.
// Node-pooled: partition agents rebuild their sampled views every exchange
// round, and recycling the map nodes keeps that rebuild off the allocator
// (see pool_allocator.h — iteration order is unaffected, which the golden
// tests depend on).
using VertexAdjacency = PooledNodeMap<VertexId, double>;

// What one server knows about the communication graph (possibly sampled and
// partially stale).
struct LocalGraphView {
  ServerId self = kNoServer;
  // Total number of local vertices (actors) — NOT just the sampled ones; the
  // balance constraint is on actor counts (or on total size, below).
  int64_t num_local_vertices = 0;
  // Sampled adjacency for local vertices that have observed edges.
  PooledNodeMap<VertexId, VertexAdjacency> adjacency;
  // Last-known location of every vertex referenced in `adjacency` (remote
  // endpoints; local vertices may be omitted and default to `self`).
  PooledNodeMap<VertexId, ServerId> location;

  // §4.2 extension — heterogeneous actors: per-vertex sizes (memory/compute
  // footprint) for local vertices. Empty = every vertex has size 1. When
  // used, `total_local_size` must be the sum over ALL local vertices.
  PooledNodeMap<VertexId, double> vertex_size;
  double total_local_size = -1.0;  // < 0: use num_local_vertices

  // Location lookup with local default.
  ServerId LocationOf(VertexId v) const;
  // Size lookup with default 1.
  double SizeOf(VertexId v) const;
  // Total size (falls back to the vertex count for unit-size graphs).
  double TotalSize() const;
};

struct PairwiseConfig {
  // k — max vertices offered per exchange ("small fraction of the total",
  // §4.1/§4.2; this is the per-exchange migration limit).
  size_t candidate_set_size = 64;
  // δ — allowed difference in vertex counts between any two servers.
  int64_t balance_delta = 16;
  // Mean vertices per server (total actors / servers), when known. A
  // pairwise-only size check lets servers drift apart through chains of
  // exchanges with third parties; anchoring both endpoints to
  // [target − δ/2, target + δ/2] guarantees the global pairwise bound the
  // paper's Theorem 1 states. Negative = unknown; fall back to the pairwise
  // |V_p| − |V_q| check. The runtime learns this from cluster membership and
  // total activation counts.
  double target_size = -1.0;
  // Candidates must have transfer score strictly above this to be offered or
  // accepted (0 == only strict improvements, which Theorem 1 requires).
  double min_score = 0.0;

  // §4.2 extension — migration costs: subtract `migration_cost_weight *
  // size(v)` from every transfer score, so heavyweight actors move only for
  // proportionally larger communication savings. 0 disables the term.
  double migration_cost_weight = 0.0;
  // §4.2 extension — bound the candidate set by total size instead of only
  // by count (0 = unlimited): "we limit the size of the candidate set by the
  // sum of sizes of all actors".
  double max_candidate_total_size = 0.0;

  // True if moving `move_size` worth of vertices from a server currently
  // holding `from_size` (vertex count or total size) to one holding
  // `to_size` keeps the balance invariant. With sized actors, δ and
  // target_size are interpreted in size units.
  bool BalanceAllows(double from_size, double to_size, double move_size = 1.0) const;
};

// One edge of an offered candidate: weight plus the offering server's
// last-known location of the far endpoint, so the receiver can score edges
// to vertices it has never observed. The receiver's own knowledge overrides
// the hint.
struct CandidateEdge {
  double weight = 0.0;
  ServerId location_hint = kNoServer;
};

// Flat sorted-vector map of a candidate's edges. Candidate degree is small
// (bounded by the sampler capacity per vertex), and candidates are built
// once, shipped, and then only probed during the greedy selection — a
// vertex-sorted vector with binary-search lookup beats a node-based hash map
// on every axis here: one allocation, cache-linear scoring loops, no
// per-node overhead on the wire-facing struct. The subset of the
// unordered_map interface the algorithm and tests use is kept verbatim.
class CandidateAdjacency {
 public:
  using value_type = std::pair<VertexId, CandidateEdge>;
  using const_iterator = std::vector<value_type>::const_iterator;

  CandidateAdjacency() = default;
  CandidateAdjacency(std::initializer_list<value_type> init) {
    std::vector<value_type> items(init.begin(), init.end());
    bulk_assign(std::move(items));
  }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void reserve(size_t n) { items_.reserve(n); }

  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

  const_iterator find(VertexId u) const {
    const auto it = LowerBound(u);
    return it != items_.end() && it->first == u ? it : items_.end();
  }
  bool contains(VertexId u) const { return find(u) != items_.end(); }

  const CandidateEdge& at(VertexId u) const {
    const auto it = find(u);
    ACTOP_CHECK(it != items_.end());
    return it->second;
  }

  // Insert-if-absent (unordered_map::emplace semantics: keep-first).
  void emplace(VertexId u, CandidateEdge edge) {
    const auto it = LowerBound(u);
    if (it == items_.end() || it->first != u) {
      items_.insert(it, value_type{u, edge});
    }
  }

  // Insert-or-reference (unordered_map::operator[] semantics).
  CandidateEdge& operator[](VertexId u) {
    auto it = MutableLowerBound(u);
    if (it == items_.end() || it->first != u) {
      it = items_.insert(it, value_type{u, CandidateEdge{}});
    }
    return it->second;
  }

  // Bulk build from unique-keyed items: one sort instead of per-edge
  // sorted-insertion (used by MakeCandidate).
  void bulk_assign(std::vector<value_type> items) {
    std::sort(items.begin(), items.end(),
              [](const value_type& a, const value_type& b) { return a.first < b.first; });
    items_ = std::move(items);
    for (size_t i = 1; i < items_.size(); i++) {
      ACTOP_DCHECK(items_[i - 1].first != items_[i].first);
    }
  }

  // Drops all edges but keeps the backing buffer — the arena data plane
  // (repartition_arena.cc) recycles Candidate objects across rounds and must
  // not free/reallocate edge storage in steady state.
  void clear() { items_.clear(); }

  // Appends an edge whose key is strictly greater than every present key.
  // Callers that already visit edges in ascending-id order (the CSR slabs)
  // skip bulk_assign's sort entirely.
  void append_ascending(VertexId u, CandidateEdge edge) {
    ACTOP_DCHECK(items_.empty() || items_.back().first < u);
    items_.emplace_back(u, edge);
  }

 private:
  const_iterator LowerBound(VertexId u) const {
    return std::lower_bound(
        items_.begin(), items_.end(), u,
        [](const value_type& item, VertexId key) { return item.first < key; });
  }
  std::vector<value_type>::iterator MutableLowerBound(VertexId u) {
    return std::lower_bound(
        items_.begin(), items_.end(), u,
        [](const value_type& item, VertexId key) { return item.first < key; });
  }

  std::vector<value_type> items_;  // sorted by vertex id
};

// A vertex offered in an exchange, with enough adjacency for the remote side
// to update scores during the greedy joint selection.
struct Candidate {
  VertexId vertex = 0;
  double score = 0.0;  // transfer score at build time (advisory for receiver)
  double size = 1.0;   // vertex size (§4.2 extension; 1 for uniform actors)
  CandidateAdjacency edges;
};

// p's plan toward one peer.
struct PeerPlan {
  ServerId peer = kNoServer;
  double total_score = 0.0;  // sum of candidate scores (peer ranking key)
  std::vector<Candidate> candidates;
};

// Exchange request from p to q (step 1 of Alg. 1).
struct ExchangeRequest {
  ServerId from = kNoServer;
  int64_t from_num_vertices = 0;
  // Total size of p's vertices (< 0: use from_num_vertices).
  double from_total_size = -1.0;
  std::vector<Candidate> candidates;  // S
};

// q's decision (steps 2–4 of Alg. 1).
struct ExchangeDecision {
  bool rejected = false;                    // q exchanged too recently
  std::vector<VertexId> accepted;           // S0 — vertices q takes from p
  std::vector<Candidate> counter_offer;     // T0 — vertices q sends to p
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

}  // namespace actop

#endif  // SRC_CORE_PAIRWISE_PARTITION_H_
