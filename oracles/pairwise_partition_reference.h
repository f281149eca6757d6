// Retained seed implementations of BuildPeerPlans / DecideExchange, used as
// the differential-test and benchmark baseline for the indexed-heap rewrite
// in pairwise_partition.cc. Do not optimize: this preserves the seed's
// per-vertex std::unordered_map remote-weight accumulation and the
// lazy-deletion priority_queue + two-unordered_map GreedyHeap so the rewrite
// can be checked decision-for-decision against it (see
// tests/core/exchange_golden_test.cc) and timed against it
// (bench/bench_partition.cc scenario "exchange_round").
//
// Candidate construction is shared with the optimized path (the flat
// CandidateAdjacency build in MakeCandidate); what this file retains is the
// seed's *algorithmic* hot structures, which is what the benchmark compares.
// Both entry points operate on the public types and must keep producing
// byte-identical plans and decisions to the optimized versions.

#ifndef ORACLES_PAIRWISE_PARTITION_REFERENCE_H_
#define ORACLES_PAIRWISE_PARTITION_REFERENCE_H_

#include <vector>

#include "oracles/local_graph_planner.h"

namespace actop::seedref {

std::vector<PeerPlan> BuildPeerPlans(const LocalGraphView& view, const PairwiseConfig& config);

ExchangeDecision DecideExchange(const LocalGraphView& view, const ExchangeRequest& request,
                                const PairwiseConfig& config);

}  // namespace actop::seedref

#endif  // ORACLES_PAIRWISE_PARTITION_REFERENCE_H_
