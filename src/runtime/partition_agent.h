// Per-server driver of the distributed partitioning algorithm (§4.2–§4.3).
//
// Each agent samples its server's outgoing actor-to-actor traffic with a
// Space-Saving summary, periodically freezes the sampled heavy edges into a
// flat CSR plan graph, plans and decides exchanges over it through a
// planning-only RepartitionArena (src/core/repartition_arena.h), and runs the
// pairwise coordination protocol over control messages. Accepted moves are
// applied through the server's opportunistic migration mechanism.
//
// The control plane stays off the message hot path without approximating
// anything. ObserveEdge only appends to a fixed-size buffer; the buffer is
// applied to the sketch in arrival order (with prefetching) when it fills and
// before anything reads the sketch — a round, an exchange request, a decay
// tick — so every count, error and eviction is the one per-message sampling
// would have produced. The plan graph is refreshed incrementally: the agent
// keeps the sketch's slots sorted by (local, peer) across refreshes, drops
// slots that lost their key and merges in only the keys inserted since, so a
// refresh never re-sorts the whole sample. Decisions equal
// BuildPeerPlansOrdered / DecideExchangeOrdered over the same sampled view
// (tests/runtime/arena_planner_test.cc): both visit local vertices in
// ascending-id order and the edge weights are integer sample counts, exact in
// double regardless of summation order.

#ifndef SRC_RUNTIME_PARTITION_AGENT_H_
#define SRC_RUNTIME_PARTITION_AGENT_H_

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/flat_hash_map.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/core/csr_graph.h"
#include "src/core/pairwise_partition.h"
#include "src/core/repartition_arena.h"
#include "src/core/space_saving.h"
#include "src/runtime/message.h"
#include "src/sim/simulation.h"

namespace actop {

class Cluster;
class Server;

struct PartitionAgentConfig {
  // How often the agent initiates an exchange round.
  SimDuration exchange_period = Seconds(6);
  // A server rejects incoming exchange requests within this window after its
  // last exchange (paper: one minute; scaled with the rest of the clock).
  SimDuration exchange_min_gap = Seconds(6);
  // How many peers to try per round before giving up (paper: until all
  // positive-score peers reject; bounding it caps control traffic).
  int max_peers_per_round = 3;
  // Space-Saving capacity for sampled edges.
  size_t edge_sample_capacity = 8192;
  // Edge counters decay by half at this period so stale edges fade (§4.3).
  SimDuration edge_decay_period = Seconds(30);
  // Parameters of the pure partitioning algorithm (target_size is filled in
  // from live cluster statistics each round).
  PairwiseConfig pairwise{.candidate_set_size = 64, .balance_delta = 64};
  // Must stay true (checked); goes away with its last writer, perfbench/src/workloads.cc.
  bool use_arena_planner = true;
};

class PartitionAgent {
 public:
  PartitionAgent(Simulation* sim, Cluster* cluster, Server* server, PartitionAgentConfig config);

  // Begins periodic exchange rounds (randomly phase-shifted so servers do
  // not initiate in lock step).
  void Start();
  void Stop();

  // Called by the Server for every actor-to-actor message its actors send.
  void ObserveEdge(ActorId local, ActorId peer, ServerId dest);

  // Control-message entry points (called by the Server).
  void OnExchangeRequest(ServerId from, const PartitionExchangeRequest& request);
  void OnExchangeResponse(ServerId from, const PartitionExchangeResponse& response);

  // Most observations ObserveEdge holds before applying them to the sketch.
  static constexpr size_t kObserveBatch = 256;
  // Observations buffered and not yet applied (never above kObserveBatch).
  size_t pending_observations() const { return num_pending_; }

  uint64_t rounds_initiated() const { return rounds_initiated_; }
  uint64_t exchanges_accepted() const { return exchanges_accepted_; }
  uint64_t exchanges_rejected() const { return exchanges_rejected_; }

 private:
  friend class PartitionAgentTestPeer;

  struct EdgeKey {
    ActorId local;
    ActorId peer;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& k) const {
      return static_cast<size_t>(SplitMix64(k.local ^ SplitMix64(k.peer)));
    }
  };

  // Applies the buffered observations to edges_ and last_seen_ in arrival
  // order. Called when the buffer fills and before every read of either.
  void FlushObservations();
  void RunRound();
  void TryNextPeer();
  void MigrateAccepted(ServerId dest, const std::vector<VertexId>& vertices);
  PairwiseConfig CurrentPairwiseConfig() const;
  // Refreezes the current samples into plan_graph_ / plan_arena_ (see the
  // member comment). A vertex active here is located here; any other vertex
  // is located by the location cache, else by its last observed destination,
  // else at the stand-in server one past the cluster's real ids.
  void RefreshPlanGraph();
  // Brings plan_slots_ up to date with the sketch (see the member comment).
  void SyncPlanSlots();

  Simulation* sim_;
  Cluster* cluster_;
  Server* server_;
  PartitionAgentConfig config_;

  struct PendingEdge {
    ActorId local;
    ActorId peer;
    ServerId dest;
  };
  std::array<PendingEdge, kObserveBatch> pending_;
  size_t num_pending_ = 0;

  SpaceSaving<EdgeKey, EdgeKeyHash> edges_;
  // Last observed destination for peers we send to (fallback when the
  // location cache has evicted the entry). Updated per observed edge and
  // never iterated, so the open-addressing map keeps it off the heap.
  FlatHashMap<ActorId, ServerId> last_seen_;

  // Persistent planner state: each round the sampled edges refreeze into
  // plan_graph_ in place and plan_arena_ re-initializes over it, all buffers
  // keeping their capacity — after warmup neither planning nor deciding
  // allocates beyond wire payloads (the fig10b allocs/event ceiling counts on
  // this).
  CsrGraph plan_graph_;
  std::unique_ptr<RepartitionArena> plan_arena_;
  // The sketch's tracked slots, sorted by their (local, peer) keys and kept
  // so across refreshes. A refresh drops the slots that lost their key and
  // merges in the slots Observe handed a new key since (fresh_slots_,
  // deduplicated by slot_fresh_), so only what changed is sorted.
  std::vector<int32_t> plan_slots_;
  std::vector<int32_t> plan_merge_;  // merge output, swapped into plan_slots_
  std::vector<int32_t> fresh_slots_;
  std::vector<bool> slot_fresh_;  // indexed by sketch slot
  std::vector<CsrEdge> plan_edges_;
  std::vector<ServerId> plan_assignment_;
  std::vector<VertexId> accepted_scratch_;
  std::vector<VertexId> counter_scratch_;

  EventId round_timer_ = 0;
  EventId decay_timer_ = 0;
  SimTime last_exchange_ = -(int64_t{1} << 60);
  bool exchange_in_flight_ = false;
  SimTime exchange_sent_at_ = 0;
  std::vector<PeerPlan> pending_plans_;  // remaining peers to try this round
  size_t next_plan_ = 0;
  uint64_t next_exchange_id_ = 1;

  uint64_t rounds_initiated_ = 0;
  uint64_t exchanges_accepted_ = 0;
  uint64_t exchanges_rejected_ = 0;
};

}  // namespace actop

#endif  // SRC_RUNTIME_PARTITION_AGENT_H_
