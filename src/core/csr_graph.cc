#include "src/core/csr_graph.h"

#include <algorithm>
#include <utility>

#include "src/core/pairwise_partition.h"
#include "src/core/partition_testbed.h"

namespace actop {

CsrGraph CsrGraph::FromWeighted(const WeightedGraph& g) {
  CsrGraph out;
  out.ids_ = g.Vertices();  // sorted
  const size_t n = out.ids_.size();
  out.index_.Reserve(n);
  for (size_t i = 0; i < n; i++) {
    out.index_.Insert(out.ids_[i], static_cast<int32_t>(i));
  }
  out.offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; i++) {
    out.offsets_[i + 1] = out.offsets_[i] + g.NeighborsOf(out.ids_[i]).size();
  }
  out.nbr_.resize(out.offsets_[n]);
  out.weight_.resize(out.offsets_[n]);
  // Each span is filled from the source hash map then sorted by neighbor
  // index, erasing the map's bucket order from the frozen layout.
  std::vector<std::pair<int32_t, double>> span;
  for (size_t i = 0; i < n; i++) {
    span.clear();
    for (const auto& [u, w] : g.NeighborsOf(out.ids_[i])) {
      const int32_t* u_idx = out.index_.Find(u);
      ACTOP_CHECK(u_idx != nullptr);
      span.emplace_back(*u_idx, w);
    }
    std::sort(span.begin(), span.end());
    size_t e = out.offsets_[i];
    for (const auto& [u_idx, w] : span) {
      out.nbr_[e] = u_idx;
      out.weight_[e] = w;
      e++;
    }
  }
  return out;
}

CsrGraph CsrGraph::FromLocalView(const LocalGraphView& view) {
  std::vector<CsrEdge> edges;
  for (const auto& [v, adj] : view.adjacency) {
    for (const auto& [u, w] : adj) {
      edges.push_back(CsrEdge{v, u, w});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const CsrEdge& a, const CsrEdge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  CsrGraph out;
  out.RebuildFromEdgeList(edges);
  return out;
}

void CsrGraph::RebuildFromEdgeList(const std::vector<CsrEdge>& edges) {
  // Vertex set: sources plus every referenced destination, sorted and
  // deduplicated (ascending ids == ascending dense indices, as always). The
  // sources arrive sorted, so only the destinations need ordering before the
  // two runs merge.
  ids_.clear();
  scratch_ids_.clear();
  for (const CsrEdge& e : edges) {
    if (ids_.empty() || ids_.back() != e.src) {
      ids_.push_back(e.src);
    }
    scratch_ids_.push_back(e.dst);
  }
  std::sort(scratch_ids_.begin(), scratch_ids_.end());
  const size_t num_sources = ids_.size();
  ids_.insert(ids_.end(), scratch_ids_.begin(),
              std::unique(scratch_ids_.begin(), scratch_ids_.end()));
  scratch_ids_.resize(ids_.size());
  std::merge(ids_.begin(), ids_.begin() + static_cast<std::ptrdiff_t>(num_sources),
             ids_.begin() + static_cast<std::ptrdiff_t>(num_sources), ids_.end(),
             scratch_ids_.begin());
  ids_.swap(scratch_ids_);
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  const size_t n = ids_.size();
  index_.Clear();
  index_.Reserve(n);
  for (size_t i = 0; i < n; i++) {
    index_.Insert(ids_[i], static_cast<int32_t>(i));
  }
  offsets_.assign(n + 1, 0);
  nbr_.resize(edges.size());
  weight_.resize(edges.size());
  // Sorted by (src, dst) means edges already arrive in CSR order: spans fill
  // contiguously in ascending source index, each sorted by destination index
  // (id order == index order on both axes).
  size_t e_i = 0;
  for (const CsrEdge& e : edges) {
    if (e_i > 0) {
      ACTOP_DCHECK(edges[e_i - 1].src < e.src ||
                   (edges[e_i - 1].src == e.src && edges[e_i - 1].dst < e.dst));
    }
    const int32_t src_idx = IndexOf(e.src);
    offsets_[static_cast<size_t>(src_idx) + 1]++;
    nbr_[e_i] = IndexOf(e.dst);
    weight_[e_i] = e.weight;
    e_i++;
  }
  for (size_t i = 0; i < n; i++) {
    offsets_[i + 1] += offsets_[i];
  }
}

}  // namespace actop
