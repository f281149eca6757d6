// Flat CSR (compressed sparse row) snapshot of a communication graph.
//
// A map-based graph pays a hash node per vertex and a map node per edge; at
// a million vertices that is gigabytes of pointer-chased slabs and every
// planning pass walks them in hash order. This freezes the graph into four
// arrays — sorted vertex ids, an offsets array, and neighbor/weight slabs —
// so a full planning sweep is one linear scan and a vertex's adjacency is a
// contiguous span.
//
// Layout invariants the arena's byte-identity proof leans on:
//   * ids are ascending, so "dense index order" == "ascending vertex id
//     order" — the canonical visit order the ordered planning entry points
//     (BuildPeerPlansOrdered) pin.
//   * each adjacency span is sorted by neighbor index (equivalently id), so
//     per-vertex weight sums accumulate in a canonical order independent of
//     any hash map's bucket layout.
//
// The structure is immutable: repartitioners move vertices, they never edit
// edges mid-run. Rebuild from the mutable source graph when the graph
// changes. The adapters from the test/bench-only map types (CsrFromWeighted
// for the testbed's WeightedGraph, CsrFromLocalView for a LocalGraphView)
// live with those types under oracles/.

#ifndef SRC_CORE_CSR_GRAPH_H_
#define SRC_CORE_CSR_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/flat_hash_map.h"
#include "src/common/ids.h"

namespace actop {

// One directed edge, the input unit of FromSortedEdges and RebuildFromEdgeList.
struct CsrEdge {
  VertexId src = 0;
  VertexId dst = 0;
  double weight = 0.0;
};

class CsrGraph {
 public:
  static constexpr int32_t kNoIndex = -1;

  // Freezes a symmetric graph. `ids` is the full vertex set, ascending, and
  // includes isolated vertices (they still occupy balance slots during
  // partitioning); `edges` holds both directions of every edge, sorted by
  // (src, dst) with unique pairs and every endpoint in `ids`.
  static CsrGraph FromSortedEdges(std::vector<VertexId> ids, const std::vector<CsrEdge>& edges);

  // Rebuilds the graph in place from a sampled directed edge list, reusing
  // every internal buffer — the runtime PartitionAgent refreezes its sampled
  // view each round through this without allocating in steady state. `edges`
  // must be sorted by (src, dst) with unique pairs; the vertex set is
  // sources plus destinations, and only sources carry spans. The result is
  // therefore NOT symmetric: it supports the arena's planning scans (which
  // only read spans of the initiating server's vertices) and nothing that
  // maintains cut cost.
  void RebuildFromEdgeList(const std::vector<CsrEdge>& edges);

  int32_t num_vertices() const { return static_cast<int32_t>(ids_.size()); }
  // Directed edge slots (2x the undirected edge count).
  size_t num_edge_slots() const { return nbr_.size(); }

  VertexId IdOf(int32_t idx) const { return ids_[static_cast<size_t>(idx)]; }
  // Dense index of `v`, or kNoIndex if the vertex is not in the graph.
  int32_t IndexOf(VertexId v) const {
    const int32_t* found = index_.Find(v);
    return found == nullptr ? kNoIndex : *found;
  }

  size_t DegreeOf(int32_t idx) const {
    return offsets_[static_cast<size_t>(idx) + 1] - offsets_[static_cast<size_t>(idx)];
  }

  // Adjacency span of vertex `idx`: neighbor dense indices and weights,
  // parallel arrays sorted by neighbor index.
  size_t EdgeBegin(int32_t idx) const { return offsets_[static_cast<size_t>(idx)]; }
  size_t EdgeEnd(int32_t idx) const { return offsets_[static_cast<size_t>(idx) + 1]; }
  int32_t EdgeNeighbor(size_t e) const { return nbr_[e]; }
  double EdgeWeight(size_t e) const { return weight_[e]; }

 private:
  // Builds the index, offsets and spans of `edges` (sorted by (src, dst))
  // over the vertex set already in ids_.
  void FillEdges(const std::vector<CsrEdge>& edges);

  std::vector<VertexId> ids_;      // ascending
  FlatHashMap<VertexId, int32_t> index_;
  std::vector<size_t> offsets_;    // n + 1 entries
  std::vector<int32_t> nbr_;       // neighbor dense index per edge slot
  std::vector<double> weight_;     // weight per edge slot
  std::vector<VertexId> scratch_ids_;  // RebuildFromEdgeList's merge buffer
};

}  // namespace actop

#endif  // SRC_CORE_CSR_GRAPH_H_
