#include "oracles/pairwise_partition_reference.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"

namespace actop::seedref {

namespace {

// Seed TopK: keeps the k highest-scoring candidates using a min-heap.
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
    std::reverse(out.begin(), out.end());
    return out;
  }

 private:
  size_t k_;
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

// Seed greedy-selection state: lazy-deletion max-heap + live-score and
// payload maps.
struct GreedyHeap {
  std::priority_queue<std::pair<double, VertexId>> heap;
  std::unordered_map<VertexId, double> current;
  std::unordered_map<VertexId, const Candidate*> candidates;

  void Init(const std::vector<Candidate>& cands,
            const std::function<double(const Candidate&)>& score_fn) {
    for (const Candidate& c : cands) {
      const double s = score_fn(c);
      current[c.vertex] = s;
      candidates[c.vertex] = &c;
      heap.emplace(s, c.vertex);
    }
  }

  bool PeekTop(VertexId* v, double* score) {
    while (!heap.empty()) {
      const auto [s, vertex] = heap.top();
      auto it = current.find(vertex);
      if (it == current.end() || it->second != s) {
        heap.pop();
        continue;
      }
      *v = vertex;
      *score = s;
      return true;
    }
    return false;
  }

  void Remove(VertexId v) { current.erase(v); }

  void Update(VertexId v, double delta) {
    auto it = current.find(v);
    if (it == current.end()) {
      return;
    }
    it->second += delta;
    heap.emplace(it->second, v);
  }
};

double EdgeWeightBetween(const Candidate& a, const Candidate& b) {
  if (auto it = a.edges.find(b.vertex); it != a.edges.end()) {
    return it->second.weight;
  }
  if (auto it = b.edges.find(a.vertex); it != b.edges.end()) {
    return it->second.weight;
  }
  return 0.0;
}

}  // namespace

std::vector<PeerPlan> BuildPeerPlans(const LocalGraphView& view, const PairwiseConfig& config) {
  std::unordered_map<ServerId, TopK> per_peer;
  for (const auto& [v, adj] : view.adjacency) {
    double local_weight = 0.0;
    // Seed hot-path structure under test: a fresh hash map per vertex.
    std::unordered_map<ServerId, double> remote_weight;
    for (const auto& [u, w] : adj) {
      const ServerId loc = view.LocationOf(u);
      if (loc == view.self) {
        local_weight += w;
      } else if (loc != kNoServer) {
        remote_weight[loc] += w;
      }
    }
    for (const auto& [server, weight] : remote_weight) {
      const double score =
          weight - local_weight - config.migration_cost_weight * view.SizeOf(v);
      if (score > kMinTransferScore) {
        per_peer.try_emplace(server, config.candidate_set_size).first->second.Offer(v, score);
      }
    }
  }

  std::vector<PeerPlan> plans;
  plans.reserve(per_peer.size());
  for (auto& [server, topk] : per_peer) {
    PeerPlan plan;
    plan.peer = server;
    double total_size = 0.0;
    for (const auto& [v, score] : topk.Drain()) {
      const double size = view.SizeOf(v);
      if (config.max_candidate_total_size > 0.0 &&
          total_size + size > config.max_candidate_total_size && !plan.candidates.empty()) {
        break;
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

ExchangeDecision DecideExchange(const LocalGraphView& view, const ExchangeRequest& request,
                                const PairwiseConfig& config) {
  ExchangeDecision decision;
  const ServerId p = request.from;
  const ServerId q = view.self;
  ACTOP_CHECK(p != q);

  std::vector<Candidate> t_candidates;
  for (const PeerPlan& plan : seedref::BuildPeerPlans(view, config)) {
    if (plan.peer == p) {
      t_candidates = plan.candidates;
      break;
    }
  }

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
  auto score_t = [&](const Candidate& c) { return c.score; };

  GreedyHeap s_heap;
  GreedyHeap t_heap;
  s_heap.Init(request.candidates, score_s);
  t_heap.Init(t_candidates, score_t);

  double size_p = request.from_total_size >= 0.0
                      ? request.from_total_size
                      : static_cast<double>(request.from_num_vertices);
  double size_q = view.TotalSize();

  while (true) {
    VertexId sv = 0;
    VertexId tv = 0;
    double s_score = 0.0;
    double t_score = 0.0;
    const bool has_s = s_heap.PeekTop(&sv, &s_score) && s_score > kMinTransferScore;
    const bool has_t = t_heap.PeekTop(&tv, &t_score) && t_score > kMinTransferScore;
    if (!has_s && !has_t) {
      break;
    }

    auto apply_move = [&](bool from_s) {
      GreedyHeap& from = from_s ? s_heap : t_heap;
      const VertexId moved = from_s ? sv : tv;
      const Candidate* moved_candidate = from.candidates.at(moved);
      const double moved_size = moved_candidate->size;
      if (from_s) {
        decision.accepted.push_back(moved);
        s_heap.Remove(moved);
        size_p -= moved_size;
        size_q += moved_size;
      } else {
        decision.counter_offer.push_back(*moved_candidate);
        t_heap.Remove(moved);
        size_p += moved_size;
        size_q -= moved_size;
      }
      for (auto& [v, cand] : s_heap.candidates) {
        if (v == moved || !s_heap.current.contains(v)) {
          continue;
        }
        const double w = EdgeWeightBetween(*cand, *moved_candidate);
        if (w > 0.0) {
          s_heap.Update(v, from_s ? +2.0 * w : -2.0 * w);
        }
      }
      for (auto& [v, cand] : t_heap.candidates) {
        if (v == moved || !t_heap.current.contains(v)) {
          continue;
        }
        const double w = EdgeWeightBetween(*cand, *moved_candidate);
        if (w > 0.0) {
          t_heap.Update(v, from_s ? -2.0 * w : +2.0 * w);
        }
      }
    };

    bool take_s;
    if (has_s && has_t) {
      take_s = s_score >= t_score;
    } else {
      take_s = has_s;
    }
    const bool s_fits =
        has_s && config.BalanceAllows(size_p, size_q, s_heap.candidates.at(sv)->size);
    const bool t_fits =
        has_t && config.BalanceAllows(size_q, size_p, t_heap.candidates.at(tv)->size);
    if (take_s && !s_fits) {
      take_s = false;
    }
    if (!take_s && !t_fits) {
      if (s_fits) {
        take_s = true;
      } else if (has_s && has_t &&
                 (s_heap.candidates.at(sv)->size >= t_heap.candidates.at(tv)->size
                      ? config.BalanceAllows(size_p, size_q, s_heap.candidates.at(sv)->size -
                                                                 t_heap.candidates.at(tv)->size)
                      : config.BalanceAllows(size_q, size_p, t_heap.candidates.at(tv)->size -
                                                                 s_heap.candidates.at(sv)->size))) {
        const Candidate* s_cand = s_heap.candidates.at(sv);
        const Candidate* t_cand = t_heap.candidates.at(tv);
        const double cross = EdgeWeightBetween(*s_cand, *t_cand);
        const double adj_s = s_score - 2.0 * cross;
        const double adj_t = t_score - 2.0 * cross;
        const bool s_first = s_score >= t_score;
        const double second_score = s_first ? adj_t : adj_s;
        if (second_score <= kMinTransferScore) {
          break;
        }
        apply_move(s_first);
        apply_move(!s_first);
        continue;
      } else {
        break;
      }
    }
    apply_move(take_s);
  }
  return decision;
}

}  // namespace actop::seedref
