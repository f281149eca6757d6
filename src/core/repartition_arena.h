// Million-vertex repartitioning data plane over a frozen CsrGraph.
//
// PartitionTestbed (oracles/partition_testbed.h, test/bench-only) is the
// readable reference implementation: it materializes a fresh LocalGraphView
// (node-based hash maps) for every protocol round, which is fine at 10^4
// vertices and hopeless at 10^6. RepartitionArena runs the same pairwise
// exchange protocol over dense arrays:
//
//   * vertex -> server in a flat vector indexed by CSR dense index;
//   * planning scans the CSR slabs linearly (no view materialization);
//   * candidates live in recycled pools, the greedy joint selection runs on
//     reused ExchangeHeaps, and the cross-server cut cost is maintained
//     incrementally (O(deg) per move) instead of recomputed O(E);
//   * after warm-up a steady-state round performs zero heap allocations
//     (gated by bench_arena).
//
// Pairwise decisions are byte-identical to PartitionTestbed with the ordered
// planning entry points: both visit local vertices in ascending-id order,
// both feed the identical candidate sequences through the shared
// RunJointSelection loop (joint_selection.h), and candidate adjacency is
// sorted on both paths. tests/core/arena_differential_test.cc holds the
// lockstep proof; exact equality of scores additionally needs weights that
// are exact in double (the dyadic-weight convention the golden tests
// already use), since the two implementations may sum a vertex's edge
// weights in different orders.
//
// The runtime PartitionAgent (src/runtime/partition_agent.h) plans through
// planning-only instances of this class and nothing else; see the
// planning-only constructor below.
//
// Beyond the paper's pairwise protocol the arena exposes the primitives the
// competing policies (oracles/repartition_policy.h) are built from: k-way
// multi-peer rounds, a greedy-unilateral sweep, an OBR-style lazy threshold
// sweep, and an SDP-style streaming refinement sweep.

#ifndef SRC_CORE_REPARTITION_ARENA_H_
#define SRC_CORE_REPARTITION_ARENA_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/core/csr_graph.h"
#include "src/core/exchange_heap.h"
#include "src/core/pairwise_partition.h"

namespace actop {

class RepartitionArena {
 public:
  // Balanced random placement, reproducing PartitionTestbed's constructor
  // exactly (same shuffle, same round-robin deal, same target_size default)
  // so equal seeds give equal starting assignments.
  RepartitionArena(const CsrGraph* graph, int servers, PairwiseConfig config, uint64_t seed);

  // Planning-only construction: adopts an explicit per-dense-index
  // assignment (values in [0, servers)) instead of drawing a random
  // placement, and skips cut initialization — the runtime PartitionAgent's
  // only planner. It plans over an asymmetric sampled-view CSR
  // (CsrGraph::RebuildFromEdgeList / CsrFromLocalView; remote endpoints carry
  // empty spans) where cut maintenance would read garbage. Instances built this way may only call
  // ExportPeerPlans, DecideOffer, ResetPlanning, and the const accessors;
  // every mutating protocol entry point checks against it.
  RepartitionArena(const CsrGraph* graph, int servers, PairwiseConfig config,
                   std::vector<ServerId> assignment);

  // Re-initializes a planning-only instance for a fresh round after the
  // underlying CsrGraph was rebuilt in place (RebuildFromEdgeList): adopts
  // the new assignment and config while every scratch buffer keeps its
  // capacity, so steady-state re-planning allocates nothing.
  void ResetPlanning(const PairwiseConfig& config, const std::vector<ServerId>& assignment);

  // Runs p's planning pass and copies the ranked per-peer plans out in the
  // reference PeerPlan format — byte-identical to BuildPeerPlansOrdered over
  // the same view with ascending-id visit order
  // (tests/runtime/arena_planner_test.cc). Plans toward `unknown` (the
  // caller's stand-in server for unknown neighbor locations) are dropped and
  // candidate-edge hints pointing at it translate back to kNoServer,
  // mirroring how the reference planner skips unknown-location edges.
  void ExportPeerPlans(ServerId p, std::vector<PeerPlan>* out, ServerId unknown = kNoServer);

  // Responder side of Alg. 1 for planning-only instances: q (this arena's
  // own server) decides on requester p's offered candidates without applying
  // any moves — byte-identical to DecideExchangeOrdered over the same
  // sampled view (tests/runtime/arena_planner_test.cc). T is q's candidate
  // set toward p; offered candidates are re-scored with q's own location
  // knowledge, falling back to p's hints where q knows nothing (`unknown`
  // translating back to kNoServer as in ExportPeerPlans). S0 vertex ids land
  // in *accepted, T0 vertex ids in *counter; size_p/size_q mirror the
  // reference's request-size / TotalSize() inputs. Byte-identity assumes
  // that location knowledge exists only for vertices the responder actually
  // sampled (all of which are in the frozen graph), as in the agent's plan
  // graph and PartitionTestbed::BuildView.
  void DecideOffer(ServerId q, ServerId p, const std::vector<Candidate>& offered, double size_p,
                   double size_q, ServerId unknown, std::vector<VertexId>* accepted,
                   std::vector<VertexId>* counter);

  // --- Paper's pairwise exchange (reference policy) ---------------------
  // One protocol round initiated by p: plan, contact peers in ranking
  // order, apply the first productive exchange. Returns vertices moved.
  int RunPairwiseRound(ServerId p);
  // Every server initiates once; returns total vertices moved.
  int RunPairwiseSweep();
  // Pairwise sweeps until one moves nothing; returns sweeps executed.
  int RunToConvergence(int max_sweeps = 1000);

  // --- k-way generalization and baselines (oracles/repartition_policy.h) -
  // Multi-peer round: p plans once, then exchanges with its top `fanout`
  // peers in ranking order. Candidates that moved in an earlier exchange of
  // the same round are filtered out, and every surviving candidate is
  // re-scored against ground truth inside the exchange, so each applied
  // move still strictly decreases the cut and respects the balance band
  // (Theorem 1 properties; tests/core/arena_test.cc).
  int RunKWayRound(ServerId p, int fanout);
  int RunKWaySweep(int fanout);
  // Uncoordinated ablation: all servers plan against the same snapshot and
  // migrate without acceptance checks (mirrors the testbed's unilateral
  // sweep; races and oscillation included).
  int64_t RunGreedyUnilateralSweep();
  // OBR-style lazy threshold: a vertex moves only when its best transfer
  // score exceeds alpha * size(v) — rent the move against the cost of
  // migrating (Avin et al.'s lazy rebalancing flavor).
  int64_t RunObrThresholdSweep(double alpha);
  // SDP-style streaming refinement: one pass reassigning each vertex to the
  // server maximizing affinity minus a linear overload penalty.
  int64_t RunStreamingRefineSweep(double load_penalty);

  // --- State / metrics ---------------------------------------------------
  // Incrementally maintained cross-server cut cost (== cross-server message
  // rate for edge weights in messages/sec). Exact for weights that are
  // exact in double; otherwise within FP-reassociation noise of
  // RecomputeCost().
  double cost() const { return cut_cost_; }
  double RecomputeCost() const;
  std::vector<int64_t> ServerSizes() const { return counts_; }
  int64_t MaxImbalance() const;
  double MaxSizeImbalance() const;
  bool IsLocallyOptimal() const;
  ServerId LocationOf(VertexId v) const;
  ServerId LocationOfIndex(int32_t idx) const { return loc_[static_cast<size_t>(idx)]; }
  int num_servers() const { return num_servers_; }
  int64_t total_migrations() const { return total_migrations_; }
  const CsrGraph& graph() const { return *graph_; }
  const PairwiseConfig& config() const { return config_; }

  // §4.2 sized actors; must be called before any rounds (same contract as
  // the testbed).
  void SetVertexSizes(const std::unordered_map<VertexId, double>& sizes);

  // FNV-1a digest of the full assignment (vertex id, server) in dense-index
  // order plus the migration counter — the determinism tests pin these
  // against baked constants, which is only sound because the arena never
  // iterates an unordered container.
  uint64_t AssignmentDigest() const;

 private:
  struct PlanRef {
    ServerId peer = kNoServer;
    double total_score = 0.0;
    uint32_t first = 0;  // index into s_pool_
    uint32_t count = 0;
  };

  double SizeOfIndex(int32_t idx) const {
    return vsize_.empty() ? 1.0 : vsize_[static_cast<size_t>(idx)];
  }
  // Pre-sizes every scratch buffer to its hard cap (shared by both
  // constructors).
  void InitScratch();
  void ApplyMoveIndex(int32_t idx, ServerId to);
  // Fills plans_ / s_pool_ with p's per-peer candidate plans, sorted by
  // (total_score desc, peer asc). Scratch: invalidated by the next
  // BuildPlans call, stable across ExchangeWithPeer calls.
  void BuildPlans(ServerId p);
  // Runs one exchange between p and plan.peer using the plan's candidates
  // as S. With filter_stale, candidates no longer located at p are dropped
  // first (k-way rounds after a prior exchange moved them). Returns
  // vertices moved (both directions).
  int ExchangeWithPeer(ServerId p, const PlanRef& plan, bool filter_stale);
  // q's counter-candidate set toward p (the testbed's "plan toward p"
  // restricted to the one peer that matters); fills t_pool_ / t_ptrs_.
  void BuildCandidatesToward(ServerId q, ServerId p);
  void FillCandidate(int32_t idx, double score, Candidate* c) const;
  Candidate* AllocCandidate(std::vector<Candidate>* pool, size_t* used);
  void OfferTopK(std::vector<std::pair<double, VertexId>>* heap, VertexId v, double score) const;

  const CsrGraph* graph_;
  int num_servers_;
  PairwiseConfig config_;
  Rng rng_;
  int32_t max_degree_ = 0;

  std::vector<ServerId> loc_;       // per dense index
  std::vector<double> vsize_;       // empty: uniform 1.0
  std::vector<int64_t> counts_;     // vertices per server
  std::vector<double> size_sums_;   // total size per server
  double cut_cost_ = 0.0;
  int64_t total_migrations_ = 0;
  bool planning_only_ = false;  // assignment-adopting ctor; no moves allowed

  // Recycled scratch (capacities survive across rounds; steady-state rounds
  // allocate nothing).
  std::vector<std::pair<ServerId, double>> remote_weight_;
  // Per-peer top-k min-heaps of (score, vertex) — same admission and
  // eviction rule as the reference TopK, then sorted descending in place to
  // reproduce its drain order.
  std::vector<std::vector<std::pair<double, VertexId>>> topk_;
  std::vector<std::pair<double, VertexId>> t_topk_;
  std::vector<Candidate> s_pool_;
  size_t s_used_ = 0;
  std::vector<Candidate> t_pool_;
  size_t t_used_ = 0;
  std::vector<PlanRef> plans_;
  std::vector<const Candidate*> s_ptrs_;
  std::vector<const Candidate*> t_ptrs_;
  ExchangeHeap s_heap_;
  ExchangeHeap t_heap_;
  std::vector<VertexId> accepted_;
  std::vector<const Candidate*> counter_;
  // Unilateral sweep scratch.
  std::vector<std::pair<int32_t, ServerId>> planned_moves_;
  std::vector<int64_t> assumed_counts_;
};

}  // namespace actop

#endif  // SRC_CORE_REPARTITION_ARENA_H_
