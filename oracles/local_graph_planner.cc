#include "oracles/local_graph_planner.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "src/common/check.h"
#include "src/core/exchange_heap.h"
#include "src/core/joint_selection.h"

namespace actop {

ServerId LocalGraphView::LocationOf(VertexId v) const {
  if (auto it = location.find(v); it != location.end()) {
    return it->second;
  }
  if (adjacency.contains(v)) {
    return self;
  }
  return kNoServer;
}

double LocalGraphView::SizeOf(VertexId v) const {
  auto it = vertex_size.find(v);
  return it == vertex_size.end() ? 1.0 : it->second;
}

double LocalGraphView::TotalSize() const {
  return total_local_size >= 0.0 ? total_local_size
                                 : static_cast<double>(num_local_vertices);
}

double TransferScore(const LocalGraphView& view, VertexId v, ServerId q) {
  auto it = view.adjacency.find(v);
  if (it == view.adjacency.end()) {
    return 0.0;
  }
  double gain = 0.0;
  for (const auto& [u, w] : it->second) {
    const ServerId loc = view.LocationOf(u);
    if (loc == q) {
      gain += w;  // remote edge becomes local
    } else if (loc == view.self) {
      gain -= w;  // local edge becomes remote
    }
  }
  return gain;
}

namespace {

// Keeps the k highest-scoring candidates using a min-heap.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}

  void Offer(VertexId v, double score) {
    if (heap_.size() < k_) {
      heap_.emplace(score, v);
      return;
    }
    if (score > heap_.top().first) {
      heap_.pop();
      heap_.emplace(score, v);
    }
  }

  std::vector<std::pair<VertexId, double>> Drain() {
    std::vector<std::pair<VertexId, double>> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.emplace_back(heap_.top().second, heap_.top().first);
      heap_.pop();
    }
    std::reverse(out.begin(), out.end());  // highest score first
    return out;
  }

 private:
  size_t k_;
  // (score, vertex); min-heap by score, ties broken by vertex id for
  // determinism.
  std::priority_queue<std::pair<double, VertexId>, std::vector<std::pair<double, VertexId>>,
                      std::greater<>>
      heap_;
};

Candidate MakeCandidate(const LocalGraphView& view, VertexId v, double score) {
  Candidate c;
  c.vertex = v;
  c.score = score;
  c.size = view.SizeOf(v);
  const auto it = view.adjacency.find(v);
  ACTOP_CHECK(it != view.adjacency.end());
  std::vector<CandidateAdjacency::value_type> edges;
  edges.reserve(it->second.size());
  for (const auto& [u, w] : it->second) {
    edges.emplace_back(u, CandidateEdge{w, view.LocationOf(u)});
  }
  c.edges.bulk_assign(std::move(edges));
  return c;
}

// Shared planning body: `for_each_vertex(fn)` must invoke
// fn(VertexId, const VertexAdjacency&) once per local vertex. The visit
// order decides top-k tie-breaking, so BuildPeerPlans and
// BuildPeerPlansOrdered differ only in the provider they pass here.
template <typename ForEachVertex>
std::vector<PeerPlan> BuildPeerPlansImpl(const LocalGraphView& view, const PairwiseConfig& config,
                                         ForEachVertex&& for_each_vertex) {
  // Per-vertex, per-server weight sums in one pass over the sampled edges.
  std::unordered_map<ServerId, TopK> per_peer;
  // Remote server -> summed weight of the current vertex's edges into it.
  // One reused vector with linear scan instead of a fresh hash map per
  // vertex: the entry count is bounded by the server count, which is tiny
  // next to the hash-node allocations this used to cost. Accumulation order
  // per server is unchanged (driven by the adjacency iteration), so sums are
  // bit-identical.
  std::vector<std::pair<ServerId, double>> remote_weight;
  for_each_vertex([&](VertexId v, const VertexAdjacency& adj) {
    double local_weight = 0.0;
    remote_weight.clear();
    for (const auto& [u, w] : adj) {
      const ServerId loc = view.LocationOf(u);
      if (loc == view.self) {
        local_weight += w;
      } else if (loc != kNoServer) {
        bool found = false;
        for (auto& [server, weight] : remote_weight) {
          if (server == loc) {
            weight += w;
            found = true;
            break;
          }
        }
        if (!found) {
          remote_weight.emplace_back(loc, w);
        }
      }
    }
    for (const auto& [server, weight] : remote_weight) {
      // §4.2 extension: migration cost proportional to the actor's size.
      const double score =
          weight - local_weight - config.migration_cost_weight * view.SizeOf(v);
      if (score > config.min_score) {
        per_peer.try_emplace(server, config.candidate_set_size).first->second.Offer(v, score);
      }
    }
  });

  std::vector<PeerPlan> plans;
  plans.reserve(per_peer.size());
  for (auto& [server, topk] : per_peer) {
    PeerPlan plan;
    plan.peer = server;
    double total_size = 0.0;
    for (const auto& [v, score] : topk.Drain()) {
      // §4.2 extension: optionally cap the candidate set by total size.
      const double size = view.SizeOf(v);
      if (config.max_candidate_total_size > 0.0 &&
          total_size + size > config.max_candidate_total_size && !plan.candidates.empty()) {
        break;  // candidates are sorted best-first; stop at the budget
      }
      total_size += size;
      plan.total_score += score;
      plan.candidates.push_back(MakeCandidate(view, v, score));
    }
    plans.push_back(std::move(plan));
  }
  std::sort(plans.begin(), plans.end(), [](const PeerPlan& a, const PeerPlan& b) {
    if (a.total_score != b.total_score) {
      return a.total_score > b.total_score;
    }
    return a.peer < b.peer;
  });
  return plans;
}

}  // namespace

std::vector<PeerPlan> BuildPeerPlans(const LocalGraphView& view, const PairwiseConfig& config) {
  return BuildPeerPlansImpl(view, config, [&](auto&& fn) {
    for (const auto& [v, adj] : view.adjacency) {
      fn(v, adj);
    }
  });
}

std::vector<PeerPlan> BuildPeerPlansOrdered(const LocalGraphView& view,
                                            const PairwiseConfig& config,
                                            const std::vector<VertexId>& order) {
  return BuildPeerPlansImpl(view, config, [&](auto&& fn) {
    for (VertexId v : order) {
      const auto it = view.adjacency.find(v);
      if (it != view.adjacency.end()) {
        fn(v, it->second);
      }
    }
  });
}

namespace {

ExchangeDecision DecideExchangeImpl(const LocalGraphView& view, const ExchangeRequest& request,
                                    const PairwiseConfig& config,
                                    const std::vector<VertexId>* order) {
  ExchangeDecision decision;
  const ServerId p = request.from;
  const ServerId q = view.self;
  ACTOP_CHECK(p != q);

  // Step 2: q determines its own candidate set T toward p, ignoring S.
  std::vector<Candidate> t_candidates;
  const std::vector<PeerPlan> plans =
      order ? BuildPeerPlansOrdered(view, config, *order) : BuildPeerPlans(view, config);
  for (const PeerPlan& plan : plans) {
    if (plan.peer == p) {
      t_candidates = plan.candidates;
      break;
    }
  }

  // Score the offered candidates S from q's perspective: q's own location
  // knowledge overrides p's hints (the graph may have changed since p
  // sampled it).
  auto score_s = [&](const Candidate& c) {
    double gain = -config.migration_cost_weight * c.size;
    for (const auto& [u, edge] : c.edges) {
      ServerId loc = view.LocationOf(u);
      if (loc == kNoServer) {
        loc = edge.location_hint;
      }
      if (loc == q) {
        gain += edge.weight;
      } else if (loc == p) {
        gain -= edge.weight;
      }
    }
    return gain;
  };
  auto score_t = [&](const Candidate& c) { return c.score; };  // computed on view already

  // Indexed max-heaps (src/core/exchange_heap.h): same (score, vertex)
  // ordering as the seed's lazy-deletion priority_queue, but score updates
  // sift in place, so the selection loop never walks stale entries.
  ExchangeHeap s_heap;
  ExchangeHeap t_heap;
  s_heap.Init(request.candidates, score_s);
  t_heap.Init(t_candidates, score_t);

  double size_p = request.from_total_size >= 0.0
                      ? request.from_total_size
                      : static_cast<double>(request.from_num_vertices);
  double size_q = view.TotalSize();

  // Step 3: jointly determine S0 and T0 (iterative greedy, §4.2) — the loop
  // itself lives in joint_selection.h, shared with the CSR arena data plane.
  RunJointSelection(
      s_heap, t_heap, config, size_p, size_q,
      [&](VertexId moved, const Candidate*) { decision.accepted.push_back(moved); },
      [&](VertexId, const Candidate* c) { decision.counter_offer.push_back(*c); });
  return decision;
}

}  // namespace

ExchangeDecision DecideExchange(const LocalGraphView& view, const ExchangeRequest& request,
                                const PairwiseConfig& config) {
  return DecideExchangeImpl(view, request, config, nullptr);
}

ExchangeDecision DecideExchangeOrdered(const LocalGraphView& view, const ExchangeRequest& request,
                                       const PairwiseConfig& config,
                                       const std::vector<VertexId>& order) {
  return DecideExchangeImpl(view, request, config, &order);
}

double CutCost(const std::unordered_map<VertexId, VertexAdjacency>& adjacency,
               const std::unordered_map<VertexId, ServerId>& locations) {
  double cost = 0.0;
  for (const auto& [v, adj] : adjacency) {
    const auto v_loc = locations.find(v);
    ACTOP_CHECK(v_loc != locations.end());
    for (const auto& [u, w] : adj) {
      // Count each unordered pair once: from the smaller endpoint, or from v
      // when the reverse direction is not present in the map.
      if (u < v) {
        const auto u_adj = adjacency.find(u);
        if (u_adj != adjacency.end() && u_adj->second.contains(v)) {
          continue;  // counted when iterating u
        }
      }
      const auto u_loc = locations.find(u);
      ACTOP_CHECK(u_loc != locations.end());
      if (v_loc->second != u_loc->second) {
        cost += w;
      }
    }
  }
  return cost;
}

CsrGraph CsrFromLocalView(const LocalGraphView& view) {
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

}  // namespace actop
