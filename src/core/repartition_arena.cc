#include "src/core/repartition_arena.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/check.h"
#include "src/core/joint_selection.h"

namespace actop {

RepartitionArena::RepartitionArena(const CsrGraph* graph, int servers, PairwiseConfig config,
                                   uint64_t seed)
    : graph_(graph), num_servers_(servers), config_(config), rng_(seed) {
  ACTOP_CHECK(graph != nullptr);
  ACTOP_CHECK(servers >= 2);
  const auto n = static_cast<size_t>(graph_->num_vertices());
  loc_.assign(n, kNoServer);
  counts_.assign(static_cast<size_t>(servers), 0);
  // Balanced random placement: shuffle ascending ids, deal round-robin —
  // the exact sequence PartitionTestbed's constructor draws, so equal seeds
  // produce equal assignments on both implementations.
  std::vector<VertexId> vertices(n);
  for (size_t i = 0; i < n; i++) {
    vertices[i] = graph_->IdOf(static_cast<int32_t>(i));
  }
  for (size_t i = n; i > 1; i--) {
    std::swap(vertices[i - 1], vertices[rng_.NextBounded(i)]);
  }
  for (size_t i = 0; i < n; i++) {
    const auto server = static_cast<ServerId>(i % static_cast<size_t>(servers));
    loc_[static_cast<size_t>(graph_->IndexOf(vertices[i]))] = server;
    counts_[static_cast<size_t>(server)]++;
  }
  size_sums_.assign(static_cast<size_t>(servers), 0.0);
  for (int s = 0; s < servers; s++) {
    size_sums_[static_cast<size_t>(s)] = static_cast<double>(counts_[static_cast<size_t>(s)]);
  }
  if (config_.target_size < 0.0) {
    config_.target_size = static_cast<double>(n) / static_cast<double>(servers);
  }
  InitScratch();
  cut_cost_ = RecomputeCost();
}

RepartitionArena::RepartitionArena(const CsrGraph* graph, int servers, PairwiseConfig config,
                                   std::vector<ServerId> assignment)
    : graph_(graph), num_servers_(servers), config_(config), rng_(0) {
  ACTOP_CHECK(graph != nullptr);
  ACTOP_CHECK(servers >= 2);
  planning_only_ = true;
  InitScratch();
  ResetPlanning(config, assignment);
  // cut_cost_ stays 0: the local-view CSR this ctor exists for is
  // asymmetric, so the O(E) recompute would double- or under-count.
}

void RepartitionArena::ResetPlanning(const PairwiseConfig& config,
                                     const std::vector<ServerId>& assignment) {
  ACTOP_CHECK(planning_only_);
  config_ = config;
  const auto n = static_cast<size_t>(graph_->num_vertices());
  ACTOP_CHECK(assignment.size() == n);
  loc_.assign(assignment.begin(), assignment.end());
  counts_.assign(static_cast<size_t>(num_servers_), 0);
  for (size_t i = 0; i < n; i++) {
    ACTOP_CHECK(loc_[i] >= 0 && loc_[i] < num_servers_);
    counts_[static_cast<size_t>(loc_[i])]++;
  }
  size_sums_.assign(static_cast<size_t>(num_servers_), 0.0);
  for (int s = 0; s < num_servers_; s++) {
    size_sums_[static_cast<size_t>(s)] = static_cast<double>(counts_[static_cast<size_t>(s)]);
  }
  // config_.target_size stays exactly as the caller set it: defaulting it to
  // a sampled-view vertex count would flip BalanceAllows into band mode with
  // a meaningless target and diverge from the reference decide, which sees
  // the caller's config verbatim.
}

void RepartitionArena::InitScratch() {
  topk_.resize(static_cast<size_t>(num_servers_));
  if (planning_only_) {
    // Runtime agents plan over sparse sampled views whose live peer and
    // candidate counts sit far below the k * (servers - 1) worst case (at
    // 1000 servers that bound would pre-commit gigabytes per agent), so the
    // scratch grows organically instead. Capacities persist across
    // ResetPlanning calls, so steady-state rounds still allocate nothing —
    // only growth rounds pay, and those land in warmup.
    return;
  }
  // Pre-size every scratch buffer to its hard cap so steady-state rounds are
  // allocation-free from the first sweep (gated by bench_arena): per-peer
  // candidate counts are bounded by k = candidate_set_size, the number of
  // peers by servers - 1, and every candidate's adjacency by the graph's
  // maximum degree.
  for (int32_t idx = 0; idx < graph_->num_vertices(); idx++) {
    max_degree_ = std::max(max_degree_, static_cast<int32_t>(graph_->DegreeOf(idx)));
  }
  const size_t k = config_.candidate_set_size;
  const auto peers = static_cast<size_t>(num_servers_ - 1);
  remote_weight_.reserve(static_cast<size_t>(num_servers_));
  for (auto& heap : topk_) {
    heap.reserve(k);
  }
  t_topk_.reserve(k);
  s_pool_.resize(k * peers);
  t_pool_.resize(k);
  for (auto& c : s_pool_) {
    c.edges.reserve(static_cast<size_t>(max_degree_));
  }
  for (auto& c : t_pool_) {
    c.edges.reserve(static_cast<size_t>(max_degree_));
  }
  plans_.reserve(static_cast<size_t>(num_servers_));
  s_ptrs_.reserve(k);
  t_ptrs_.reserve(k);
  s_heap_.Reserve(k);
  t_heap_.Reserve(k);
  accepted_.reserve(k);
  counter_.reserve(k);
}

void RepartitionArena::ExportPeerPlans(ServerId p, std::vector<PeerPlan>* out, ServerId unknown) {
  BuildPlans(p);
  out->clear();
  out->reserve(plans_.size());
  for (const PlanRef& plan : plans_) {
    if (plan.peer == unknown) {
      continue;  // stand-in for unknown locations; the reference planner
                 // never plans toward it
    }
    PeerPlan pp;
    pp.peer = plan.peer;
    pp.total_score = plan.total_score;
    pp.candidates.reserve(plan.count);
    for (uint32_t i = 0; i < plan.count; i++) {
      const Candidate& src = s_pool_[plan.first + i];
      Candidate& dst = pp.candidates.emplace_back();
      dst.vertex = src.vertex;
      dst.score = src.score;
      dst.size = src.size;
      dst.edges.reserve(src.edges.size());
      for (const auto& [u, edge] : src.edges) {
        dst.edges.append_ascending(
            u, CandidateEdge{edge.weight,
                             edge.location_hint == unknown ? kNoServer : edge.location_hint});
      }
    }
    out->push_back(std::move(pp));
  }
}

void RepartitionArena::DecideOffer(ServerId q, ServerId p, const std::vector<Candidate>& offered,
                                   double size_p, double size_q, ServerId unknown,
                                   std::vector<VertexId>* accepted,
                                   std::vector<VertexId>* counter) {
  ACTOP_CHECK(planning_only_);
  ACTOP_CHECK(p != q);
  s_ptrs_.clear();
  for (const Candidate& c : offered) {
    s_ptrs_.push_back(&c);
  }
  RespondToOffer(q, p, size_p, size_q, unknown, accepted, counter);
}

void RepartitionArena::RespondToOffer(ServerId q, ServerId p, double size_p, double size_q,
                                      ServerId unknown, std::vector<VertexId>* accepted,
                                      std::vector<VertexId>* counter) {
  // Step 2 of Alg. 1: q's own candidate set toward p, ignoring S (the
  // reference's plan-toward-p restricted to the one peer that matters).
  BuildCandidatesToward(q, p);
  // q's perspective on offered candidates: q's own location knowledge
  // overrides p's hints, falling back to the hint for vertices q has never
  // sampled or whose location it does not know — exactly the reference
  // score_s, with `unknown` (the planning stand-in server) translating back
  // to "no knowledge" like in ExportPeerPlans. A full arena knows every
  // neighbour's location, so there this reads ground truth: in a pairwise
  // round that equals the reference too (no move lands between planning and
  // deciding), and in k-way rounds, where hints could have gone stale, it is
  // the fresher choice and keeps every applied move a strict improvement.
  auto score_s = [&](const Candidate& c) {
    double gain = -config_.migration_cost_weight * c.size;
    for (const auto& [u, edge] : c.edges) {
      const int32_t idx = graph_->IndexOf(u);
      ServerId l = idx == CsrGraph::kNoIndex ? kNoServer : loc_[static_cast<size_t>(idx)];
      if (l == unknown || l == kNoServer) {
        l = edge.location_hint;
      }
      if (l == q) {
        gain += edge.weight;
      } else if (l == p) {
        gain -= edge.weight;
      }
    }
    return gain;
  };
  auto score_t = [&](const Candidate& c) { return c.score; };

  s_heap_.Reset();
  t_heap_.Reset();
  s_heap_.InitPtrs(s_ptrs_, score_s);
  t_heap_.InitPtrs(t_ptrs_, score_t);

  // Step 3: joint S0/T0 selection through the shared loop; only vertex ids
  // come out.
  accepted->clear();
  counter->clear();
  RunJointSelection(
      s_heap_, t_heap_, config_, size_p, size_q,
      [&](VertexId moved, const Candidate*) { accepted->push_back(moved); },
      [&](VertexId, const Candidate* c) { counter->push_back(c->vertex); });
}

void RepartitionArena::SetVertexSizes(const std::unordered_map<VertexId, double>& sizes) {
  ACTOP_CHECK(total_migrations_ == 0);
  const auto n = static_cast<size_t>(graph_->num_vertices());
  vsize_.assign(n, 1.0);
  for (const auto& [v, s] : sizes) {
    const int32_t idx = graph_->IndexOf(v);
    if (idx != CsrGraph::kNoIndex) {
      vsize_[static_cast<size_t>(idx)] = s;
    }
  }
  // Per-server sums accumulate over ascending vertex ids (each server's
  // members form a subsequence of the dense scan) — the same addition order
  // as the testbed's sorted member iteration, so sums are bit-identical.
  size_sums_.assign(static_cast<size_t>(num_servers_), 0.0);
  for (size_t idx = 0; idx < n; idx++) {
    size_sums_[static_cast<size_t>(loc_[idx])] += vsize_[idx];
  }
  double total = 0.0;
  for (int s = 0; s < num_servers_; s++) {
    total += size_sums_[static_cast<size_t>(s)];
  }
  config_.target_size = total / static_cast<double>(num_servers_);
}

double RepartitionArena::RecomputeCost() const {
  // The graph is symmetric, so each undirected edge appears in both spans
  // with the same weight; counting the (idx < nbr) direction visits every
  // unordered pair exactly once.
  double cost = 0.0;
  const int32_t n = graph_->num_vertices();
  for (int32_t idx = 0; idx < n; idx++) {
    const size_t end = graph_->EdgeEnd(idx);
    for (size_t i = graph_->EdgeBegin(idx); i < end; i++) {
      const int32_t u = graph_->EdgeNeighbor(i);
      if (u > idx && loc_[static_cast<size_t>(u)] != loc_[static_cast<size_t>(idx)]) {
        cost += graph_->EdgeWeight(i);
      }
    }
  }
  return cost;
}

void RepartitionArena::ApplyMoveIndex(int32_t idx, ServerId to) {
  // Planning-only instances sit on an asymmetric local-view CSR whose cut
  // bookkeeping would be wrong; the runtime applies moves through actor
  // migration instead.
  ACTOP_CHECK(!planning_only_);
  const ServerId from = loc_[static_cast<size_t>(idx)];
  ACTOP_CHECK(from != to);
  // O(deg) incremental cut maintenance: edges into `from` turn cross-server,
  // edges into `to` turn local, everything else is unchanged.
  const size_t end = graph_->EdgeEnd(idx);
  for (size_t i = graph_->EdgeBegin(idx); i < end; i++) {
    const ServerId l = loc_[static_cast<size_t>(graph_->EdgeNeighbor(i))];
    if (l == from) {
      cut_cost_ += graph_->EdgeWeight(i);
    } else if (l == to) {
      cut_cost_ -= graph_->EdgeWeight(i);
    }
  }
  loc_[static_cast<size_t>(idx)] = to;
  counts_[static_cast<size_t>(from)]--;
  counts_[static_cast<size_t>(to)]++;
  const double s = SizeOfIndex(idx);
  size_sums_[static_cast<size_t>(from)] -= s;
  size_sums_[static_cast<size_t>(to)] += s;
  total_migrations_++;
}

Candidate* RepartitionArena::AllocCandidate(std::vector<Candidate>* pool, size_t* used) {
  if (*used == pool->size()) {
    pool->emplace_back();
  }
  return &(*pool)[(*used)++];
}

void RepartitionArena::FillCandidate(int32_t idx, double score, Candidate* c) const {
  c->vertex = graph_->IdOf(idx);
  c->score = score;
  c->size = SizeOfIndex(idx);
  c->edges.clear();  // keeps the edge buffer (candidate recycling)
  const size_t end = graph_->EdgeEnd(idx);
  for (size_t i = graph_->EdgeBegin(idx); i < end; i++) {
    const int32_t u = graph_->EdgeNeighbor(i);
    // CSR spans are sorted by neighbor index == neighbor id, matching the
    // sorted layout MakeCandidate's bulk_assign produces.
    c->edges.append_ascending(graph_->IdOf(u),
                              CandidateEdge{graph_->EdgeWeight(i), loc_[static_cast<size_t>(u)]});
  }
}

void RepartitionArena::OfferTopK(std::vector<std::pair<double, VertexId>>* heap, VertexId v,
                                 double score) const {
  // Same admission/eviction rule as the reference TopK (min-heap on the
  // (score, vertex) pair; a tie with the current minimum's score rejects
  // the newcomer).
  const size_t k = config_.candidate_set_size;
  if (k == 0) {
    return;
  }
  auto& h = *heap;
  if (h.size() < k) {
    h.emplace_back(score, v);
    std::push_heap(h.begin(), h.end(), std::greater<>{});
    return;
  }
  if (score > h.front().first) {
    std::pop_heap(h.begin(), h.end(), std::greater<>{});
    h.back() = {score, v};
    std::push_heap(h.begin(), h.end(), std::greater<>{});
  }
}

void RepartitionArena::BuildPlans(ServerId p) {
  s_used_ = 0;
  plans_.clear();
  for (auto& heap : topk_) {
    heap.clear();
  }
  const int32_t n = graph_->num_vertices();
  for (int32_t idx = 0; idx < n; idx++) {
    if (loc_[static_cast<size_t>(idx)] != p) {
      continue;
    }
    const size_t begin = graph_->EdgeBegin(idx);
    const size_t end = graph_->EdgeEnd(idx);
    if (begin == end) {
      continue;
    }
    double local_weight = 0.0;
    remote_weight_.clear();
    for (size_t i = begin; i < end; i++) {
      const ServerId l = loc_[static_cast<size_t>(graph_->EdgeNeighbor(i))];
      const double w = graph_->EdgeWeight(i);
      if (l == p) {
        local_weight += w;
      } else {
        bool found = false;
        for (auto& [server, weight] : remote_weight_) {
          if (server == l) {
            weight += w;
            found = true;
            break;
          }
        }
        if (!found) {
          remote_weight_.emplace_back(l, w);
        }
      }
    }
    for (const auto& [server, weight] : remote_weight_) {
      const double score =
          weight - local_weight - config_.migration_cost_weight * SizeOfIndex(idx);
      if (score > kMinTransferScore) {
        OfferTopK(&topk_[static_cast<size_t>(server)], graph_->IdOf(idx), score);
      }
    }
  }

  for (ServerId s = 0; s < num_servers_; s++) {
    auto& heap = topk_[static_cast<size_t>(s)];
    if (heap.empty()) {
      continue;
    }
    // Descending (score, vertex) — exactly the reference TopK::Drain order.
    std::sort(heap.begin(), heap.end(), std::greater<>{});
    PlanRef plan;
    plan.peer = s;
    plan.first = static_cast<uint32_t>(s_used_);
    double total_size = 0.0;
    for (const auto& [score, v] : heap) {
      const int32_t vidx = graph_->IndexOf(v);
      const double size = SizeOfIndex(vidx);
      if (config_.max_candidate_total_size > 0.0 &&
          total_size + size > config_.max_candidate_total_size && plan.count > 0) {
        break;  // candidates are sorted best-first; stop at the budget
      }
      total_size += size;
      plan.total_score += score;
      FillCandidate(vidx, score, AllocCandidate(&s_pool_, &s_used_));
      plan.count++;
    }
    plans_.push_back(plan);
  }
  std::sort(plans_.begin(), plans_.end(), [](const PlanRef& a, const PlanRef& b) {
    if (a.total_score != b.total_score) {
      return a.total_score > b.total_score;
    }
    return a.peer < b.peer;
  });
}

void RepartitionArena::BuildCandidatesToward(ServerId q, ServerId p) {
  t_used_ = 0;
  t_ptrs_.clear();
  t_topk_.clear();
  const int32_t n = graph_->num_vertices();
  for (int32_t idx = 0; idx < n; idx++) {
    if (loc_[static_cast<size_t>(idx)] != q) {
      continue;
    }
    const size_t begin = graph_->EdgeBegin(idx);
    const size_t end = graph_->EdgeEnd(idx);
    if (begin == end) {
      continue;
    }
    double local_weight = 0.0;
    double toward_p = 0.0;
    bool any_p = false;
    for (size_t i = begin; i < end; i++) {
      const ServerId l = loc_[static_cast<size_t>(graph_->EdgeNeighbor(i))];
      const double w = graph_->EdgeWeight(i);
      if (l == q) {
        local_weight += w;
      } else if (l == p) {
        toward_p += w;
        any_p = true;
      }
    }
    if (!any_p) {
      continue;
    }
    const double score =
        toward_p - local_weight - config_.migration_cost_weight * SizeOfIndex(idx);
    if (score > kMinTransferScore) {
      OfferTopK(&t_topk_, graph_->IdOf(idx), score);
    }
  }
  if (t_topk_.empty()) {
    return;
  }
  std::sort(t_topk_.begin(), t_topk_.end(), std::greater<>{});
  double total_size = 0.0;
  size_t count = 0;
  for (const auto& [score, v] : t_topk_) {
    const int32_t vidx = graph_->IndexOf(v);
    const double size = SizeOfIndex(vidx);
    if (config_.max_candidate_total_size > 0.0 &&
        total_size + size > config_.max_candidate_total_size && count > 0) {
      break;
    }
    total_size += size;
    FillCandidate(vidx, score, AllocCandidate(&t_pool_, &t_used_));
    count++;
  }
  t_ptrs_.reserve(t_used_);
  for (size_t i = 0; i < t_used_; i++) {
    t_ptrs_.push_back(&t_pool_[i]);
  }
}

int RepartitionArena::ExchangeWithPeer(ServerId p, const PlanRef& plan, bool filter_stale) {
  const ServerId q = plan.peer;
  ACTOP_DCHECK(q != p);
  s_ptrs_.clear();
  for (uint32_t i = 0; i < plan.count; i++) {
    const Candidate& c = s_pool_[plan.first + i];
    if (filter_stale &&
        loc_[static_cast<size_t>(graph_->IndexOf(c.vertex))] != p) {
      continue;  // moved by an earlier exchange of this k-way round
    }
    s_ptrs_.push_back(&c);
  }
  RespondToOffer(q, p, size_sums_[static_cast<size_t>(p)], size_sums_[static_cast<size_t>(q)],
                 kNoServer, &accepted_, &counter_);
  for (VertexId v : accepted_) {
    ApplyMoveIndex(graph_->IndexOf(v), q);
  }
  for (VertexId v : counter_) {
    ApplyMoveIndex(graph_->IndexOf(v), p);
  }
  return static_cast<int>(accepted_.size() + counter_.size());
}

int RepartitionArena::RunPairwiseRound(ServerId p) {
  BuildPlans(p);
  for (const PlanRef& plan : plans_) {
    const int moved = ExchangeWithPeer(p, plan, /*filter_stale=*/false);
    if (moved > 0) {
      return moved;  // first productive exchange ends the round (Alg. 1)
    }
  }
  return 0;
}

int RepartitionArena::RunPairwiseSweep() {
  int moved = 0;
  for (ServerId p = 0; p < num_servers_; p++) {
    moved += RunPairwiseRound(p);
  }
  return moved;
}

int RepartitionArena::RunToConvergence(int max_sweeps) {
  for (int sweep = 1; sweep <= max_sweeps; sweep++) {
    if (RunPairwiseSweep() == 0) {
      return sweep;
    }
  }
  return max_sweeps;
}

int RepartitionArena::RunKWayRound(ServerId p, int fanout) {
  BuildPlans(p);
  int moved = 0;
  int exchanged = 0;
  for (const PlanRef& plan : plans_) {
    if (exchanged >= fanout) {
      break;
    }
    moved += ExchangeWithPeer(p, plan, /*filter_stale=*/true);
    exchanged++;
  }
  return moved;
}

int RepartitionArena::RunKWaySweep(int fanout) {
  int moved = 0;
  for (ServerId p = 0; p < num_servers_; p++) {
    moved += RunKWayRound(p, fanout);
  }
  return moved;
}

int64_t RepartitionArena::RunGreedyUnilateralSweep() {
  // Snapshot phase: every server plans against the same state (mirrors
  // PartitionTestbed::RunUnilateralSweep — no acceptance check, no
  // counter-offer, balance only against assumed snapshot counts).
  planned_moves_.clear();
  for (ServerId p = 0; p < num_servers_; p++) {
    BuildPlans(p);
    assumed_counts_.assign(counts_.begin(), counts_.end());
    for (const PlanRef& plan : plans_) {
      for (uint32_t i = 0; i < plan.count; i++) {
        const Candidate& c = s_pool_[plan.first + i];
        const auto from = static_cast<size_t>(p);
        const auto to = static_cast<size_t>(plan.peer);
        if (!config_.BalanceAllows(static_cast<double>(assumed_counts_[from]),
                                   static_cast<double>(assumed_counts_[to]))) {
          continue;
        }
        assumed_counts_[from]--;
        assumed_counts_[to]++;
        planned_moves_.emplace_back(graph_->IndexOf(c.vertex), plan.peer);
      }
    }
  }
  // Apply phase: races included — two servers may swap a heavy edge's
  // endpoints past each other.
  int64_t applied = 0;
  for (const auto& [idx, to] : planned_moves_) {
    if (loc_[static_cast<size_t>(idx)] == to) {
      continue;
    }
    ApplyMoveIndex(idx, to);
    applied++;
  }
  return applied;
}

int64_t RepartitionArena::RunObrThresholdSweep(double alpha) {
  int64_t moved = 0;
  const int32_t n = graph_->num_vertices();
  for (int32_t idx = 0; idx < n; idx++) {
    const size_t begin = graph_->EdgeBegin(idx);
    const size_t end = graph_->EdgeEnd(idx);
    if (begin == end) {
      continue;
    }
    const ServerId from = loc_[static_cast<size_t>(idx)];
    double local_weight = 0.0;
    remote_weight_.clear();
    for (size_t i = begin; i < end; i++) {
      const ServerId l = loc_[static_cast<size_t>(graph_->EdgeNeighbor(i))];
      const double w = graph_->EdgeWeight(i);
      if (l == from) {
        local_weight += w;
      } else {
        bool found = false;
        for (auto& [server, weight] : remote_weight_) {
          if (server == l) {
            weight += w;
            found = true;
            break;
          }
        }
        if (!found) {
          remote_weight_.emplace_back(l, w);
        }
      }
    }
    const double size = SizeOfIndex(idx);
    ServerId best = kNoServer;
    double best_score = 0.0;
    for (const auto& [server, weight] : remote_weight_) {
      const double score = weight - local_weight - config_.migration_cost_weight * size;
      if (best == kNoServer || score > best_score) {
        best = server;
        best_score = score;
      }
    }
    // Lazy threshold: the gain must also pay the (alpha-scaled) migration
    // rent before the move fires.
    if (best == kNoServer || best_score <= kMinTransferScore || best_score <= alpha * size) {
      continue;
    }
    if (!config_.BalanceAllows(size_sums_[static_cast<size_t>(from)],
                               size_sums_[static_cast<size_t>(best)], size)) {
      continue;
    }
    ApplyMoveIndex(idx, best);
    moved++;
  }
  return moved;
}

int64_t RepartitionArena::RunStreamingRefineSweep(double load_penalty) {
  int64_t moved = 0;
  const int32_t n = graph_->num_vertices();
  const double target = config_.target_size;
  for (int32_t idx = 0; idx < n; idx++) {
    const size_t begin = graph_->EdgeBegin(idx);
    const size_t end = graph_->EdgeEnd(idx);
    if (begin == end) {
      continue;
    }
    const ServerId from = loc_[static_cast<size_t>(idx)];
    double local_weight = 0.0;
    remote_weight_.clear();
    for (size_t i = begin; i < end; i++) {
      const ServerId l = loc_[static_cast<size_t>(graph_->EdgeNeighbor(i))];
      const double w = graph_->EdgeWeight(i);
      if (l == from) {
        local_weight += w;
      } else {
        bool found = false;
        for (auto& [server, weight] : remote_weight_) {
          if (server == l) {
            weight += w;
            found = true;
            break;
          }
        }
        if (!found) {
          remote_weight_.emplace_back(l, w);
        }
      }
    }
    const double size = SizeOfIndex(idx);
    // Streaming objective: affinity minus a linear overload penalty
    // (Fennel/SDP-style). Staying put is scored the same way.
    auto overload = [&](double server_size) {
      return server_size > target ? load_penalty * (server_size - target) : 0.0;
    };
    const double stay_value =
        local_weight - overload(size_sums_[static_cast<size_t>(from)]);
    ServerId best = kNoServer;
    double best_value = stay_value;
    for (const auto& [server, weight] : remote_weight_) {
      const double value =
          weight - overload(size_sums_[static_cast<size_t>(server)] + size);
      if (value > best_value) {
        best = server;
        best_value = value;
      }
    }
    if (best == kNoServer || best_value - stay_value <= kMinTransferScore) {
      continue;
    }
    if (!config_.BalanceAllows(size_sums_[static_cast<size_t>(from)],
                               size_sums_[static_cast<size_t>(best)], size)) {
      continue;
    }
    ApplyMoveIndex(idx, best);
    moved++;
  }
  return moved;
}

int64_t RepartitionArena::MaxImbalance() const {
  const auto [mn, mx] = std::minmax_element(counts_.begin(), counts_.end());
  return *mx - *mn;
}

double RepartitionArena::MaxSizeImbalance() const {
  const auto [mn, mx] = std::minmax_element(size_sums_.begin(), size_sums_.end());
  return *mx - *mn;
}

ServerId RepartitionArena::LocationOf(VertexId v) const {
  const int32_t idx = graph_->IndexOf(v);
  ACTOP_CHECK(idx != CsrGraph::kNoIndex);
  return loc_[static_cast<size_t>(idx)];
}

bool RepartitionArena::IsLocallyOptimal() const {
  const int32_t n = graph_->num_vertices();
  std::vector<std::pair<ServerId, double>> remote_weight;
  for (int32_t idx = 0; idx < n; idx++) {
    const size_t begin = graph_->EdgeBegin(idx);
    const size_t end = graph_->EdgeEnd(idx);
    if (begin == end) {
      continue;
    }
    const ServerId from = loc_[static_cast<size_t>(idx)];
    double local_weight = 0.0;
    remote_weight.clear();
    for (size_t i = begin; i < end; i++) {
      const ServerId l = loc_[static_cast<size_t>(graph_->EdgeNeighbor(i))];
      const double w = graph_->EdgeWeight(i);
      if (l == from) {
        local_weight += w;
      } else {
        bool found = false;
        for (auto& [server, weight] : remote_weight) {
          if (server == l) {
            weight += w;
            found = true;
            break;
          }
        }
        if (!found) {
          remote_weight.emplace_back(l, w);
        }
      }
    }
    const double size = SizeOfIndex(idx);
    for (const auto& [q, weight] : remote_weight) {
      if (weight - local_weight - config_.migration_cost_weight * size <= kMinTransferScore) {
        continue;
      }
      if (config_.BalanceAllows(size_sums_[static_cast<size_t>(from)],
                                size_sums_[static_cast<size_t>(q)], size)) {
        return false;
      }
    }
  }
  return true;
}

uint64_t RepartitionArena::AssignmentDigest() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;  // FNV prime
  };
  const int32_t n = graph_->num_vertices();
  for (int32_t idx = 0; idx < n; idx++) {
    mix(graph_->IdOf(idx));
    mix(static_cast<uint64_t>(static_cast<int64_t>(loc_[static_cast<size_t>(idx)])));
  }
  mix(static_cast<uint64_t>(total_migrations_));
  return h;
}

}  // namespace actop
