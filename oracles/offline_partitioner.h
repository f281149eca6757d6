// Centralized offline balanced graph partitioner.
//
// Plays the role of METIS in the paper's §4.1 discussion: a single-node
// algorithm that sees the whole graph. Used as the quality/runtime baseline
// for the distributed pairwise algorithm in tests and the micro benchmark
// (the paper reports that centralized partitioning of multi-million-vertex
// graphs took hours and could not keep up with graph churn).
//
// Algorithm: BFS-based seeded growth for the initial balanced assignment,
// then Kernighan–Lin-style refinement passes (best positive-gain single-vertex
// moves under the balance constraint) until a pass makes no move.

#ifndef ORACLES_OFFLINE_PARTITIONER_H_
#define ORACLES_OFFLINE_PARTITIONER_H_

#include <unordered_map>

#include "oracles/partition_testbed.h"
#include "src/common/ids.h"

namespace actop {

struct OfflinePartitionResult {
  std::unordered_map<VertexId, ServerId> assignment;
  double cut_cost = 0.0;
  int refinement_passes = 0;
};

// Partitions `graph` into `servers` parts with vertex-count imbalance at most
// `balance_delta`.
OfflinePartitionResult OfflinePartition(const WeightedGraph& graph, int servers,
                                        int64_t balance_delta, int max_passes = 50);

}  // namespace actop

#endif  // ORACLES_OFFLINE_PARTITIONER_H_
