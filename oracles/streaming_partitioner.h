// Streaming graph partitioning heuristics (Stanton & Kliot, KDD 2012 — the
// paper's reference [31]).
//
// These place each vertex once, as it arrives, using only the neighbors seen
// so far — the "faster heuristics" class the paper contrasts with its
// continuously-running distributed algorithm (§7: they "still require the
// entire graph in a central server, or deal with static graphs"). Included
// as an initial-placement baseline and for the related-work comparison:
//
//   * kHashing: uniform random placement (the Orleans default);
//   * kLinearDeterministicGreedy (LDG): maximize |N(v) ∩ P_i| scaled by a
//     linear capacity penalty (1 − |P_i|/C);
//   * kFennel: maximize |N(v) ∩ P_i| − α·γ·|P_i|^(γ−1) (Tsourakakis et al.'s
//     streaming objective, the common companion baseline).

#ifndef ORACLES_STREAMING_PARTITIONER_H_
#define ORACLES_STREAMING_PARTITIONER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "oracles/local_graph_planner.h"
#include "src/common/ids.h"
#include "src/common/rng.h"

namespace actop {

enum class StreamingHeuristic {
  kHashing,
  kLinearDeterministicGreedy,
  kFennel,
};

struct StreamingPartitionerConfig {
  StreamingHeuristic heuristic = StreamingHeuristic::kLinearDeterministicGreedy;
  // Capacity slack: each part may hold up to slack * n/k vertices.
  double capacity_slack = 1.1;
  // Fennel parameters (γ and the load exponent); α is derived from the
  // stream size as in the Fennel paper: α = m · k^(γ−1) / n^γ with m and n
  // estimated from expected totals.
  double fennel_gamma = 1.5;
  uint64_t seed = 1;
};

class StreamingPartitioner {
 public:
  // expected_vertices/expected_edges size the capacity bound and Fennel's α.
  StreamingPartitioner(int servers, int64_t expected_vertices, int64_t expected_edges,
                       StreamingPartitionerConfig config);

  // Places vertex v given its (known-so-far) neighbors; returns the chosen
  // server and records the assignment. Idempotent for already-placed ids.
  ServerId Place(VertexId v, const VertexAdjacency& neighbors);

  // Assignment of an already-placed vertex, or kNoServer.
  ServerId LocationOf(VertexId v) const;

  const std::unordered_map<VertexId, ServerId>& assignment() const { return assignment_; }
  int64_t PartSize(ServerId s) const { return sizes_[static_cast<size_t>(s)]; }
  int64_t MaxImbalance() const;

 private:
  double ScoreFor(ServerId s, double neighbor_weight) const;

  const int servers_;
  const StreamingPartitionerConfig config_;
  const double capacity_;
  double fennel_alpha_;
  Rng rng_;
  std::unordered_map<VertexId, ServerId> assignment_;
  std::vector<int64_t> sizes_;
  // Per-part neighbor-weight scratch for Place(): sized once to servers_ and
  // re-zeroed per call instead of a fresh heap allocation per placement.
  std::vector<double> neighbor_weight_;
};

}  // namespace actop

#endif  // ORACLES_STREAMING_PARTITIONER_H_
