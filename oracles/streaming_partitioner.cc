#include "oracles/streaming_partitioner.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace actop {

StreamingPartitioner::StreamingPartitioner(int servers, int64_t expected_vertices,
                                           int64_t expected_edges,
                                           StreamingPartitionerConfig config)
    : servers_(servers),
      config_(config),
      capacity_(config.capacity_slack * static_cast<double>(expected_vertices) /
                static_cast<double>(servers)),
      rng_(config.seed) {
  ACTOP_CHECK(servers >= 1);
  ACTOP_CHECK(expected_vertices >= 1);
  ACTOP_CHECK(config.capacity_slack >= 1.0);
  sizes_.assign(static_cast<size_t>(servers), 0);
  neighbor_weight_.assign(static_cast<size_t>(servers), 0.0);
  // Fennel's α = m·k^(γ−1)/n^γ balances the edge and load terms.
  const double n = static_cast<double>(expected_vertices);
  const double m = std::max<double>(1.0, static_cast<double>(expected_edges));
  fennel_alpha_ = m * std::pow(static_cast<double>(servers), config.fennel_gamma - 1.0) /
                  std::pow(n, config.fennel_gamma);
}

ServerId StreamingPartitioner::LocationOf(VertexId v) const {
  auto it = assignment_.find(v);
  return it == assignment_.end() ? kNoServer : it->second;
}

double StreamingPartitioner::ScoreFor(ServerId s, double neighbor_weight) const {
  const auto load = static_cast<double>(sizes_[static_cast<size_t>(s)]);
  switch (config_.heuristic) {
    case StreamingHeuristic::kHashing:
      return 0.0;  // handled by the caller
    case StreamingHeuristic::kLinearDeterministicGreedy:
      return neighbor_weight * (1.0 - load / capacity_);
    case StreamingHeuristic::kFennel:
      return neighbor_weight - fennel_alpha_ * config_.fennel_gamma *
                                   std::pow(std::max(load, 1.0), config_.fennel_gamma - 1.0);
  }
  return 0.0;
}

ServerId StreamingPartitioner::Place(VertexId v, const VertexAdjacency& neighbors) {
  if (auto it = assignment_.find(v); it != assignment_.end()) {
    return it->second;
  }

  ServerId chosen = kNoServer;
  if (config_.heuristic == StreamingHeuristic::kHashing) {
    chosen = static_cast<ServerId>(rng_.NextBounded(static_cast<uint64_t>(servers_)));
  } else {
    // Weight of already-placed neighbors per part (member scratch; placement
    // math is unchanged, only the per-call allocation is gone).
    std::fill(neighbor_weight_.begin(), neighbor_weight_.end(), 0.0);
    for (const auto& [u, w] : neighbors) {
      const ServerId loc = LocationOf(u);
      if (loc != kNoServer) {
        neighbor_weight_[static_cast<size_t>(loc)] += w;
      }
    }
    double best = -1e300;
    for (ServerId s = 0; s < servers_; s++) {
      if (static_cast<double>(sizes_[static_cast<size_t>(s)]) >= capacity_) {
        continue;  // hard capacity bound
      }
      const double score = ScoreFor(s, neighbor_weight_[static_cast<size_t>(s)]);
      // Ties break toward the lighter part for stability.
      if (score > best ||
          (score == best && chosen != kNoServer &&
           sizes_[static_cast<size_t>(s)] < sizes_[static_cast<size_t>(chosen)])) {
        best = score;
        chosen = s;
      }
    }
    if (chosen == kNoServer) {
      // Everything at capacity (can happen when expected_vertices was under-
      // estimated): fall back to the lightest part.
      chosen = static_cast<ServerId>(
          std::min_element(sizes_.begin(), sizes_.end()) - sizes_.begin());
    }
  }
  assignment_.emplace(v, chosen);
  sizes_[static_cast<size_t>(chosen)]++;
  return chosen;
}

int64_t StreamingPartitioner::MaxImbalance() const {
  const auto [mn, mx] = std::minmax_element(sizes_.begin(), sizes_.end());
  return *mx - *mn;
}

}  // namespace actop
