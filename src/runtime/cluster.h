// The simulated cluster: servers, network, actor state store, and metrics.
//
// Plays the role of the paper's 10-server Orleans deployment. The Cluster
// wires servers to the network, owns the application actor objects (the
// "persistent state store": activations bind an actor id to a server, but
// the object itself survives deactivation and migration, as Orleans state
// does through storage), and hosts the optional ActOp components — one
// PartitionAgent and one ModelThreadController per server.
//
// The cluster runs on a ShardedEngine: servers are block-mapped onto shards
// (server i -> shard i*K/N), each server's events — SEDA stages, CPU model,
// partition agent, thread controller — run on its shard's Simulation, and
// clients/drivers live on shard 0. Cross-shard coupling is confined to:
//   * the actor state store (mutex-guarded creation; per-shard "seen" sets
//     answer placement queries so a shard's decision depends only on its own
//     history — deterministic for a fixed shard count),
//   * per-shard ClusterMetrics instances with merged cluster-level views,
//   * total_activations(), which in parallel mode reads a snapshot taken at
//     each window barrier (the live sum would race mid-window).
// With shards == 1 the engine is the serial engine: one Simulation, no
// locks, no snapshots.

#ifndef SRC_RUNTIME_CLUSTER_H_
#define SRC_RUNTIME_CLUSTER_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/flat_hash_map.h"

#include "src/actor/actor.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/core/thread_controller.h"
#include "src/net/network.h"
#include "src/runtime/metrics.h"
#include "src/runtime/partition_agent.h"
#include "src/runtime/server.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"

namespace actop {

struct ClusterConfig {
  int num_servers = 8;
  ServerConfig server;
  NetworkConfig network;
  uint64_t seed = 1;

  // ActOp optimizations (both off == the paper's baseline Orleans).
  bool enable_partitioning = false;
  PartitionAgentConfig partition;
  bool enable_thread_optimization = false;
  ModelControllerConfig thread_controller;  // no_blocking is filled in per server
};

class Cluster {
 public:
  // Servers block-mapped across the engine's shards. Requires
  // shards <= num_servers. The engine must outlive the cluster.
  Cluster(ShardedEngine* engine, ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Registers an application actor type; must happen before traffic starts.
  // `handler_compute` is the worker-stage time each turn of this type costs.
  void RegisterActorType(ActorType type, ActorFactory factory, SimDuration handler_compute);

  // Starts the enabled ActOp controllers (partition agents / thread
  // controllers). Call after workload setup.
  void StartOptimizers();

  // Shard 0's engine: the driver shard (clients, workloads, setup code).
  Simulation& sim() { return engine_->sim(); }
  bool parallel() const { return engine_->parallel(); }
  int shards() const { return engine_->shards(); }
  // Block map: server i runs on shard i*K/N. Uses the config count, not
  // servers_.size(): the constructor needs the map while servers_ is still
  // filling.
  int ShardOfServer(ServerId id) const {
    return static_cast<int>(static_cast<int64_t>(id) * shards() / config_.num_servers);
  }

  Network& network() { return *network_; }

  // Cluster-level metric views: sum/merge the per-shard instances, so a
  // reader sees every shard's traffic.
  ClusterMetrics::Window TakeMetricsWindow();
  void ResetMetricsLatencies();
  Histogram MergedActorCallLatency() const;
  Histogram MergedRemoteActorCallLatency() const;

  int num_servers() const { return static_cast<int>(servers_.size()); }
  Server& server(int i) { return *servers_[static_cast<size_t>(i)]; }
  PartitionAgent* partition_agent(int i);

  // Node/server address mapping (clients occupy nodes above the servers).
  NodeId NodeOfServer(ServerId id) const;
  ServerId ServerOfNode(NodeId node) const;  // kNoServer for client nodes
  // Client nodes attach to shard 0 (the driver shard).
  NodeId AddClientNode(Network::DeliverFn deliver);

  // --- Actor state store ---
  // Returns the application object for `actor`, creating it on first use.
  // `shard` is the calling shard (used to maintain the per-shard seen sets);
  // the single-argument form is for driver/test code on shard 0.
  Actor* GetOrCreateActor(ActorId actor) { return GetOrCreateActor(actor, 0); }
  Actor* GetOrCreateActor(ActorId actor, int shard);
  // True if the actor has ever been activated (its state exists).
  bool HasActorState(ActorId actor) const;
  // Placement-policy variant of HasActorState: in parallel mode it answers
  // from the calling shard's own history only, so the answer cannot depend
  // on what another shard did concurrently in the same window. With one
  // shard: identical to HasActorState.
  bool HasActorStateForPlacement(ActorId actor, int shard) const;
  SimDuration HandlerCompute(ActorId actor) const;

  // Total activations across all servers (placement-balance target input).
  // Parallel mode returns the last window-barrier snapshot.
  int64_t total_activations() const;

  // Fraction of actor-to-actor application messages that crossed servers,
  // over each server's lifetime counters.
  double RemoteMessageFraction() const;

  // Sum of per-server migration counters.
  uint64_t total_migrations() const;

  // --- Failure injection ---
  // Simulates a hard crash + instant replacement of server `id`: all its
  // activations vanish (state survives in the store), its directory shard
  // entries for actors it owned are evicted cluster-wide, and remote caches
  // drop entries pointing at it. In parallel mode: coordinator/rail context
  // only (mutates every server).
  void CrashServer(ServerId id);

  // Simulates churn of the directory shard homed at `id` (shard handoff /
  // idle-activation collection sweep): every idle actor registered there is
  // deactivated and unregistered, so subsequent calls must re-place and
  // re-register it from scratch. Busy actors keep their entries. Returns the
  // number of actors churned. Parallel mode: coordinator/rail context only.
  int ChurnDirectoryShard(ServerId id);

  Rng& rng() { return rng_; }

 private:
  // Window-barrier hook (parallel mode): refreshes cross-shard snapshots.
  void SnapshotGlobals();

  ShardedEngine* engine_;
  ClusterConfig config_;
  Rng rng_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<PartitionAgent>> agents_;
  std::vector<std::unique_ptr<ModelThreadController>> thread_controllers_;
  std::unordered_map<ActorType, ActorTypeInfo> actor_types_;

  // Guards state_store_ in parallel mode (activation creation can race
  // across shards); not taken with one shard. FlatHashMap: one flat slot
  // per actor instead of a heap node + bucket chain — at 10M actors the
  // per-entry overhead is what dominates the footprint. Never iterated, and
  // unique_ptr values move safely through rehash.
  mutable std::mutex state_mu_;
  FlatHashMap<ActorId, std::unique_ptr<Actor>> state_store_;
  // Per-shard sets of actors each shard has created or re-activated; backs
  // HasActorStateForPlacement in parallel mode. Padded via separate
  // allocations (one set per shard, touched only by that shard). Value is a
  // dummy byte — FlatHashMap as a flat set.
  std::vector<std::unique_ptr<FlatHashMap<ActorId, uint8_t>>> state_seen_;

  // Scratch for ChurnDirectoryShard's copy-then-deactivate walk.
  std::vector<std::pair<ActorId, ServerId>> churn_scratch_;

  // One metrics instance per shard; shard workers write only their own.
  std::vector<std::unique_ptr<ClusterMetrics>> metrics_;

  // Barrier snapshot of total activations (parallel mode).
  int64_t activation_snapshot_ = 0;
};

}  // namespace actop

#endif  // SRC_RUNTIME_CLUSTER_H_
