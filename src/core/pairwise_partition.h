// The distributed balanced graph-partitioning algorithm of §4.2 (Alg. 1 in
// the paper): the types its pairwise coordination protocol exchanges.
//
// Each server p computes, for each peer q, a candidate set S of its top-k
// vertices by transfer score Rp,q(v) = Σ_{u∈V_q} w(v,u) − Σ_{u∈V_p} w(v,u)
// and ranks peers by total score (PeerPlan). p offers S to q
// (ExchangeRequest); q builds its own candidate set T toward p, then
// greedily and jointly picks S0 ⊆ S, T0 ⊆ T, updating scores after every
// pick and enforcing the balance constraint ||V_p| − |V_q|| ≤ δ
// (ExchangeDecision).
//
// The runtime's PartitionAgent (src/runtime/partition_agent.h) runs the
// algorithm through the CSR arena (repartition_arena.h). The map-based
// LocalGraphView planner the arena is proven byte-identical against lives
// with the other test/bench-only oracles in oracles/local_graph_planner.h.

#ifndef SRC_CORE_PAIRWISE_PARTITION_H_
#define SRC_CORE_PAIRWISE_PARTITION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/ids.h"

namespace actop {

// Candidates must have transfer score strictly above this to be offered or
// accepted: only strict improvements, which Theorem 1 requires.
inline constexpr double kMinTransferScore = 0.0;

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
  // sorted-insertion (used by MakeCandidate, oracles/local_graph_planner.cc).
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

}  // namespace actop

#endif  // SRC_CORE_PAIRWISE_PARTITION_H_
