#include "src/core/csr_graph.h"

#include <algorithm>
#include <utility>

namespace actop {

CsrGraph CsrGraph::FromSortedEdges(std::vector<VertexId> ids, const std::vector<CsrEdge>& edges) {
  CsrGraph out;
  out.ids_ = std::move(ids);
  ACTOP_DCHECK(std::is_sorted(out.ids_.begin(), out.ids_.end()));
  out.FillEdges(edges);
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
  FillEdges(edges);
}

void CsrGraph::FillEdges(const std::vector<CsrEdge>& edges) {
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
