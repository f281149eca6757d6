// Pluggable repartitioning policies over RepartitionArena — the "arena" in
// repartitioning arena: every policy races on the same frozen graph, the
// same initial placement, and the same balance configuration, so
// convergence speed, final cut cost, and migration volume are directly
// comparable (bench/bench_arena.cc).
//
// Policy matrix (see EXPERIMENTS.md "Repartitioning arena"):
//   pairwise     — the paper's Alg. 1 (reference; byte-identical to the
//                  PartitionTestbed implementation).
//   kway<f>      — hierarchical generalization: each round exchanges with
//                  the top-f peers of one plan, stale candidates filtered
//                  and re-scored, so Theorem 1's monotonicity/balance
//                  properties still hold per applied move.
//   unilateral   — greedy uncoordinated migration (the §4.2 ablation).
//   obr-lazy     — Online Balanced Repartitioning flavor: move only when
//                  the gain exceeds alpha * size(v) (lazy rebalancing rent).
//   sdp-stream   — SDP-style streaming refinement: per-vertex reassignment
//                  maximizing affinity minus a linear overload penalty.
//
// To add a policy: implement RunSweep in terms of RepartitionArena's
// primitives (BuildPlans/ExchangeWithPeer live behind the arena's public
// Run* methods; add a new Run*Sweep there if the policy needs new
// mechanics), then register it in MakeArenaPolicies so the bench race and
// the smoke test pick it up automatically.

#ifndef ORACLES_REPARTITION_POLICY_H_
#define ORACLES_REPARTITION_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/repartition_arena.h"

namespace actop {

struct PolicyParams {
  int kway_fanout = 4;
  double obr_alpha = 0.5;
  double sdp_load_penalty = 0.25;
};

class RepartitionPolicy {
 public:
  virtual ~RepartitionPolicy() = default;
  virtual const std::string& name() const = 0;
  // One full sweep (every server initiates once, or one streaming pass over
  // all vertices). Returns vertices moved; 0 means converged / quiescent.
  virtual int64_t RunSweep(RepartitionArena* arena) = 0;
};

std::unique_ptr<RepartitionPolicy> MakePairwisePolicy();
std::unique_ptr<RepartitionPolicy> MakeKWayPolicy(int fanout);
std::unique_ptr<RepartitionPolicy> MakeGreedyUnilateralPolicy();
std::unique_ptr<RepartitionPolicy> MakeObrThresholdPolicy(double alpha);
std::unique_ptr<RepartitionPolicy> MakeStreamingRefinePolicy(double load_penalty);

// The full competitive field, reference policy first.
std::vector<std::unique_ptr<RepartitionPolicy>> MakeArenaPolicies(
    const PolicyParams& params = PolicyParams{});

}  // namespace actop

#endif  // ORACLES_REPARTITION_POLICY_H_
