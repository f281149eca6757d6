#include "oracles/offline_partitioner.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <vector>

#include "src/common/check.h"

namespace actop {

namespace {

// Balanced BFS growth: repeatedly grow regions from the highest-degree
// unassigned seed, round-robin across servers.
std::unordered_map<VertexId, ServerId> InitialAssignment(const WeightedGraph& graph,
                                                         int servers) {
  std::vector<VertexId> vertices = graph.Vertices();
  // Heaviest (by total incident weight) vertices first make better seeds.
  std::vector<std::pair<double, VertexId>> by_weight;
  by_weight.reserve(vertices.size());
  for (VertexId v : vertices) {
    double w = 0.0;
    for (const auto& [u, weight] : graph.NeighborsOf(v)) {
      w += weight;
    }
    by_weight.emplace_back(w, v);
  }
  std::sort(by_weight.begin(), by_weight.end(), std::greater<>());

  std::unordered_map<VertexId, ServerId> assignment;
  const size_t target = (vertices.size() + static_cast<size_t>(servers) - 1) /
                        static_cast<size_t>(servers);
  std::vector<size_t> sizes(static_cast<size_t>(servers), 0);
  ServerId current = 0;
  size_t cursor = 0;
  std::deque<VertexId> frontier;
  while (assignment.size() < vertices.size()) {
    if (frontier.empty() || sizes[static_cast<size_t>(current)] >= target) {
      if (sizes[static_cast<size_t>(current)] >= target) {
        current = static_cast<ServerId>((current + 1) % servers);
        frontier.clear();
      }
      // Seed with the heaviest unassigned vertex.
      while (cursor < by_weight.size() && assignment.contains(by_weight[cursor].second)) {
        cursor++;
      }
      if (cursor >= by_weight.size()) {
        break;
      }
      frontier.push_back(by_weight[cursor].second);
    }
    const VertexId v = frontier.front();
    frontier.pop_front();
    if (assignment.contains(v)) {
      continue;
    }
    assignment.emplace(v, current);
    sizes[static_cast<size_t>(current)]++;
    for (const auto& [u, w] : graph.NeighborsOf(v)) {
      if (!assignment.contains(u)) {
        frontier.push_back(u);
      }
    }
  }
  return assignment;
}

}  // namespace

OfflinePartitionResult OfflinePartition(const WeightedGraph& graph, int servers,
                                        int64_t balance_delta, int max_passes) {
  ACTOP_CHECK(servers >= 2);
  OfflinePartitionResult result;
  result.assignment = InitialAssignment(graph, servers);

  std::vector<int64_t> sizes(static_cast<size_t>(servers), 0);
  for (const auto& [v, s] : result.assignment) {
    sizes[static_cast<size_t>(s)]++;
  }

  // Anchor both endpoints of every move to the mean ± δ/2 band so the global
  // pairwise imbalance stays within δ (same invariant as PairwiseConfig).
  const double target =
      static_cast<double>(result.assignment.size()) / static_cast<double>(servers);
  const double lo = target - static_cast<double>(balance_delta) / 2.0;
  const double hi = target + static_cast<double>(balance_delta) / 2.0;

  const std::vector<VertexId> vertices = graph.Vertices();
  for (int pass = 0; pass < max_passes; pass++) {
    result.refinement_passes = pass + 1;
    int moves = 0;
    for (VertexId v : vertices) {
      const ServerId from = result.assignment.at(v);
      double local_weight = 0.0;
      std::unordered_map<ServerId, double> remote_weight;
      for (const auto& [u, w] : graph.NeighborsOf(v)) {
        const ServerId u_loc = result.assignment.at(u);
        if (u_loc == from) {
          local_weight += w;
        } else {
          remote_weight[u_loc] += w;
        }
      }
      ServerId best = kNoServer;
      double best_gain = 0.0;
      for (const auto& [q, weight] : remote_weight) {
        const double gain = weight - local_weight;
        if (gain <= best_gain) {
          continue;
        }
        const auto sp = static_cast<double>(sizes[static_cast<size_t>(from)]);
        const auto sq = static_cast<double>(sizes[static_cast<size_t>(q)]);
        if (sp - 1.0 < lo || sq + 1.0 > hi) {
          continue;
        }
        best = q;
        best_gain = gain;
      }
      if (best != kNoServer) {
        sizes[static_cast<size_t>(from)]--;
        sizes[static_cast<size_t>(best)]++;
        result.assignment[v] = best;
        moves++;
      }
    }
    if (moves == 0) {
      break;
    }
  }
  result.cut_cost = CutCost(graph.adjacency(), result.assignment);
  return result;
}

}  // namespace actop
