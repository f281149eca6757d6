#include "oracles/partition_testbed.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/common/check.h"

namespace actop {

void WeightedGraph::AddVertex(VertexId v) { adjacency_.try_emplace(v); }

void WeightedGraph::AddEdge(VertexId a, VertexId b, double w) {
  ACTOP_CHECK(a != b);
  ACTOP_CHECK(w > 0.0);
  if (!adjacency_[a].contains(b)) {
    num_edges_++;
  }
  adjacency_[a][b] += w;
  adjacency_[b][a] += w;
}

const VertexAdjacency& WeightedGraph::NeighborsOf(VertexId v) const {
  static const VertexAdjacency kEmpty;
  auto it = adjacency_.find(v);
  return it == adjacency_.end() ? kEmpty : it->second;
}

std::vector<VertexId> WeightedGraph::Vertices() const {
  std::vector<VertexId> out;
  out.reserve(adjacency_.size());
  for (const auto& [v, adj] : adjacency_) {
    out.push_back(v);
  }
  std::sort(out.begin(), out.end());  // deterministic iteration for callers
  return out;
}

CsrGraph CsrFromWeighted(const WeightedGraph& g) {
  // Each span is gathered from the source hash map then sorted by neighbor
  // id, erasing the map's bucket order from the frozen layout.
  std::vector<VertexId> ids = g.Vertices();  // sorted
  std::vector<CsrEdge> edges;
  std::vector<std::pair<VertexId, double>> span;
  for (const VertexId v : ids) {
    span.clear();
    for (const auto& [u, w] : g.NeighborsOf(v)) {
      ACTOP_CHECK(g.adjacency().contains(u));
      span.emplace_back(u, w);
    }
    std::sort(span.begin(), span.end());
    for (const auto& [u, w] : span) {
      edges.push_back(CsrEdge{v, u, w});
    }
  }
  return CsrGraph::FromSortedEdges(std::move(ids), edges);
}

WeightedGraph MakeClusteredGraph(int clusters, int cluster_size, double intra_weight,
                                 int extra_edges, double inter_weight, Rng* rng) {
  ACTOP_CHECK(clusters >= 1);
  ACTOP_CHECK(cluster_size >= 2);
  WeightedGraph g;
  const int n = clusters * cluster_size;
  for (int c = 0; c < clusters; c++) {
    const int base = c * cluster_size + 1;  // vertex ids start at 1
    for (int i = 0; i < cluster_size; i++) {
      for (int j = i + 1; j < cluster_size; j++) {
        g.AddEdge(static_cast<VertexId>(base + i), static_cast<VertexId>(base + j), intra_weight);
      }
    }
  }
  for (int e = 0; e < extra_edges; e++) {
    const auto a = static_cast<VertexId>(rng->NextInt(1, n));
    auto b = static_cast<VertexId>(rng->NextInt(1, n));
    while (b == a) {
      b = static_cast<VertexId>(rng->NextInt(1, n));
    }
    g.AddEdge(a, b, inter_weight);
  }
  return g;
}

WeightedGraph MakeChurnedClusteredGraph(int clusters, int cluster_size, double intra_weight,
                                        double churn_fraction, Rng* rng) {
  ACTOP_CHECK(clusters >= 2);
  ACTOP_CHECK(churn_fraction >= 0.0 && churn_fraction <= 1.0);
  WeightedGraph g = MakeClusteredGraph(clusters, cluster_size, intra_weight,
                                       /*extra_edges=*/0, /*inter_weight=*/intra_weight, rng);
  const int n = clusters * cluster_size;
  const int churned = static_cast<int>(churn_fraction * static_cast<double>(n));
  const int new_edges = cluster_size / 2;
  for (int i = 0; i < churned; i++) {
    const auto v = static_cast<VertexId>(rng->NextInt(1, n));
    const int home = static_cast<int>((v - 1) / static_cast<VertexId>(cluster_size));
    int target = rng->NextInt(0, clusters - 1);
    if (target == home) {
      target = (target + 1) % clusters;
    }
    const int base = target * cluster_size + 1;
    for (int e = 0; e < new_edges; e++) {
      const auto u = static_cast<VertexId>(base + rng->NextInt(0, cluster_size - 1));
      if (u != v) {
        g.AddEdge(v, u, intra_weight / 2.0);
      }
    }
  }
  return g;
}

WeightedGraph MakeRandomGraph(int vertices, int edges, double max_weight, Rng* rng) {
  ACTOP_CHECK(vertices >= 2);
  WeightedGraph g;
  for (int v = 1; v <= vertices; v++) {
    g.AddVertex(static_cast<VertexId>(v));
  }
  for (int e = 0; e < edges; e++) {
    const auto a = static_cast<VertexId>(rng->NextInt(1, vertices));
    auto b = static_cast<VertexId>(rng->NextInt(1, vertices));
    while (b == a) {
      b = static_cast<VertexId>(rng->NextInt(1, vertices));
    }
    g.AddEdge(a, b, rng->NextDouble(0.0, max_weight) + 1e-3);
  }
  return g;
}

PartitionTestbed::PartitionTestbed(const WeightedGraph* graph, int servers, PairwiseConfig config,
                                   uint64_t seed)
    : graph_(graph), num_servers_(servers), config_(config), rng_(seed) {
  ACTOP_CHECK(graph != nullptr);
  ACTOP_CHECK(servers >= 2);
  members_.resize(static_cast<size_t>(servers));
  sizes_.assign(static_cast<size_t>(servers), 0);
  // Balanced random placement: shuffle, then deal round-robin. This models
  // the Orleans default (uniform placement keeps per-server actor counts
  // essentially equal) and starts inside the balance band.
  std::vector<VertexId> vertices = graph_->Vertices();
  for (size_t i = vertices.size(); i > 1; i--) {
    std::swap(vertices[i - 1], vertices[rng_.NextBounded(i)]);
  }
  for (size_t i = 0; i < vertices.size(); i++) {
    const auto server = static_cast<ServerId>(i % static_cast<size_t>(servers));
    locations_.emplace(vertices[i], server);
    members_[static_cast<size_t>(server)].insert(vertices[i]);
    sizes_[static_cast<size_t>(server)]++;
  }
  size_sums_.assign(static_cast<size_t>(servers), 0.0);
  for (int s = 0; s < servers; s++) {
    size_sums_[static_cast<size_t>(s)] = static_cast<double>(sizes_[static_cast<size_t>(s)]);
  }
  if (config_.target_size < 0.0) {
    config_.target_size =
        static_cast<double>(vertices.size()) / static_cast<double>(servers);
  }
}

double PartitionTestbed::SizeOf(VertexId v) const {
  auto it = vertex_sizes_.find(v);
  return it == vertex_sizes_.end() ? 1.0 : it->second;
}

void PartitionTestbed::SetVertexSizes(std::unordered_map<VertexId, double> sizes) {
  ACTOP_CHECK(total_migrations_ == 0);
  vertex_sizes_ = std::move(sizes);
  double total = 0.0;
  for (int s = 0; s < num_servers_; s++) {
    double sum = 0.0;
    for (VertexId v : members_[static_cast<size_t>(s)]) {
      sum += SizeOf(v);
    }
    size_sums_[static_cast<size_t>(s)] = sum;
    total += sum;
  }
  // Re-anchor the balance band to mean size per server.
  config_.target_size = total / static_cast<double>(num_servers_);
}

double PartitionTestbed::MaxSizeImbalance() const {
  const auto [mn, mx] = std::minmax_element(size_sums_.begin(), size_sums_.end());
  return *mx - *mn;
}

LocalGraphView PartitionTestbed::BuildView(ServerId p) const {
  LocalGraphView view;
  view.self = p;
  view.num_local_vertices = sizes_[static_cast<size_t>(p)];
  view.total_local_size = size_sums_[static_cast<size_t>(p)];
  for (VertexId v : members_[static_cast<size_t>(p)]) {
    const VertexAdjacency& adj = graph_->NeighborsOf(v);
    if (adj.empty()) {
      continue;
    }
    view.adjacency.emplace(v, adj);
    if (!vertex_sizes_.empty()) {
      view.vertex_size.emplace(v, SizeOf(v));
    }
    for (const auto& [u, w] : adj) {
      view.location.emplace(u, locations_.at(u));
    }
  }
  return view;
}

std::vector<VertexId> PartitionTestbed::SampledMembers(ServerId p) const {
  std::vector<VertexId> order;
  order.reserve(members_[static_cast<size_t>(p)].size());
  for (VertexId v : members_[static_cast<size_t>(p)]) {
    if (!graph_->NeighborsOf(v).empty()) {
      order.push_back(v);
    }
  }
  return order;
}

void PartitionTestbed::ApplyMove(VertexId v, ServerId to) {
  const ServerId from = locations_.at(v);
  ACTOP_CHECK(from != to);
  members_[static_cast<size_t>(from)].erase(v);
  members_[static_cast<size_t>(to)].insert(v);
  sizes_[static_cast<size_t>(from)]--;
  sizes_[static_cast<size_t>(to)]++;
  size_sums_[static_cast<size_t>(from)] -= SizeOf(v);
  size_sums_[static_cast<size_t>(to)] += SizeOf(v);
  locations_[v] = to;
  total_migrations_++;
}

int PartitionTestbed::RunRound(ServerId p) {
  const LocalGraphView p_view = BuildView(p);
  std::vector<PeerPlan> plans = BuildPeerPlansOrdered(p_view, config_, SampledMembers(p));
  for (const PeerPlan& plan : plans) {
    ExchangeRequest request;
    request.from = p;
    request.from_num_vertices = sizes_[static_cast<size_t>(p)];
    request.from_total_size = size_sums_[static_cast<size_t>(p)];
    request.candidates = plan.candidates;
    const LocalGraphView q_view = BuildView(plan.peer);
    ExchangeDecision decision =
        DecideExchangeOrdered(q_view, request, config_, SampledMembers(plan.peer));
    if (decision.rejected) {
      continue;
    }
    if (decision.accepted.empty() && decision.counter_offer.empty()) {
      continue;  // nothing profitable with this peer; try the next one
    }
    for (VertexId v : decision.accepted) {
      ApplyMove(v, plan.peer);
    }
    for (const Candidate& c : decision.counter_offer) {
      ApplyMove(c.vertex, p);
    }
    return static_cast<int>(decision.accepted.size() + decision.counter_offer.size());
  }
  return 0;
}

int PartitionTestbed::RunToConvergence(int max_sweeps) {
  for (int sweep = 1; sweep <= max_sweeps; sweep++) {
    int moved = 0;
    for (ServerId p = 0; p < num_servers_; p++) {
      moved += RunRound(p);
    }
    if (moved == 0) {
      return sweep;
    }
  }
  return max_sweeps;
}

int PartitionTestbed::RunUnilateralSweep() {
  // Snapshot phase: every server plans against the same state.
  struct PlannedMove {
    VertexId vertex;
    ServerId to;
  };
  std::vector<PlannedMove> moves;
  const std::vector<int64_t> snapshot_sizes = sizes_;
  for (ServerId p = 0; p < num_servers_; p++) {
    const LocalGraphView view = BuildView(p);
    std::vector<int64_t> assumed_sizes = snapshot_sizes;
    for (const PeerPlan& plan : BuildPeerPlansOrdered(view, config_, SampledMembers(p))) {
      for (const Candidate& c : plan.candidates) {
        const auto from = static_cast<size_t>(p);
        const auto to = static_cast<size_t>(plan.peer);
        if (!config_.BalanceAllows(static_cast<double>(assumed_sizes[from]),
                                   static_cast<double>(assumed_sizes[to]))) {
          continue;
        }
        assumed_sizes[from]--;
        assumed_sizes[to]++;
        moves.push_back(PlannedMove{c.vertex, plan.peer});
      }
    }
  }
  // Apply phase: races happen here — two servers may have planned around the
  // same heavy edge and now swap its endpoints past each other.
  int applied = 0;
  for (const PlannedMove& m : moves) {
    if (locations_.at(m.vertex) == m.to) {
      continue;
    }
    ApplyMove(m.vertex, m.to);
    applied++;
  }
  return applied;
}

double PartitionTestbed::Cost() const { return CutCost(graph_->adjacency(), locations_); }

std::vector<int64_t> PartitionTestbed::ServerSizes() const { return sizes_; }

int64_t PartitionTestbed::MaxImbalance() const {
  const auto [min_it, max_it] = std::minmax_element(sizes_.begin(), sizes_.end());
  return *max_it - *min_it;
}

bool PartitionTestbed::IsLocallyOptimal() const {
  for (const auto& [v, loc] : locations_) {
    const VertexAdjacency& adj = graph_->NeighborsOf(v);
    if (adj.empty()) {
      continue;
    }
    double local_weight = 0.0;
    std::unordered_map<ServerId, double> remote_weight;
    for (const auto& [u, w] : adj) {
      const ServerId u_loc = locations_.at(u);
      if (u_loc == loc) {
        local_weight += w;
      } else {
        remote_weight[u_loc] += w;
      }
    }
    for (const auto& [q, weight] : remote_weight) {
      if (weight - local_weight - config_.migration_cost_weight * SizeOf(v) <=
          kMinTransferScore) {
        continue;
      }
      // Positive transfer score: only acceptable if balance blocks the move.
      const double sp = size_sums_[static_cast<size_t>(loc)];
      const double sq = size_sums_[static_cast<size_t>(q)];
      if (config_.BalanceAllows(sp, sq, SizeOf(v))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace actop
