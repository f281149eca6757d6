// A simulated Orleans-style server (silo).
//
// Each server runs the paper's SEDA pipeline (Figure 2): a Receive stage
// (deserialization), a Worker stage (application-logic turns on user-level
// threads), and two sender stages (ServerSender for inter-server RPCs,
// ClientSender for client responses), all sharing one CpuModel. It hosts
// actor activations with turn-based (one call at a time) delivery, a
// location cache, and one shard of the distributed placement directory.
//
// Routing follows Orleans semantics: a call for a non-local actor first
// consults the location cache, then the actor's home directory shard, which
// registers a first-writer-wins activation. Stale caches cause bounded
// forwarding (hops), after which the directory is consulted. Migration is
// opportunistic (§4.3): deactivate + unregister + prime the caches of the
// two servers involved; the next call re-activates the actor at the target.

#ifndef SRC_RUNTIME_SERVER_H_
#define SRC_RUNTIME_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/actor/actor.h"
#include "src/actor/directory.h"
#include "src/actor/location_cache.h"
#include "src/common/flat_hash_map.h"
#include "src/common/ids.h"
#include "src/common/ring_buffer.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/slab_map.h"
#include "src/net/network.h"
#include "src/runtime/envelope_pool.h"
#include "src/runtime/message.h"
#include "src/seda/cpu.h"
#include "src/seda/stage.h"
#include "src/seda/thread_host.h"
#include "src/sim/simulation.h"

namespace actop {

class Cluster;
class ClusterMetrics;
class PartitionAgent;
class ServerCallContext;

// How the directory places an actor that has never been activated. (After a
// deactivation or migration, re-placement follows the paper's §4.3 rule:
// cache hint if available, otherwise the calling server.)
enum class PlacementPolicy {
  kRandom,          // Orleans default: uniform random server
  kLocal,           // on the first calling server
  kConsistentHash,  // deterministic hash of the actor id
};

struct ServerConfig {
  int cores = 8;
  double kappa = 0.03;               // CPU context-switch efficiency penalty
  // Scheduling quantum driving dispatch (ready-state) latency; the dominant
  // latency term when runnable threads exceed cores (see src/seda/cpu.h).
  SimDuration dispatch_quantum = Micros(60);
  int initial_threads_per_stage = 8; // Orleans default: one per core per stage
  size_t stage_queue_capacity = 200000;

  // Serialization cost model (CPU in the receive/sender stages). The values
  // are calibrated against the paper's §3 measurements (see EXPERIMENTS.md);
  // costs scale with message size, which is how the lightweight Counter
  // messages and the heavyweight Halo game-status payloads differ.
  SimDuration deserialize_base = Micros(85);
  double deserialize_ns_per_byte = 250.0;
  SimDuration serialize_base = Micros(60);
  double serialize_ns_per_byte = 250.0;
  // Service-time variability: costs are drawn exponentially around their
  // mean (matching the bursty behaviour of managed-runtime serialization
  // and allocation spikes). false = deterministic costs.
  bool exponential_costs = true;

  // Managed-runtime (GC) pauses: stop-the-world events whose duration grows
  // with the number of allocated threads. The backlog they create is why a
  // SEDA server's latency is so sensitive to thread allocation (Fig 4/5).
  // Set gc_mean_interval to 0 to disable.
  SimDuration gc_mean_interval = Millis(250);
  SimDuration gc_base_duration = Millis(4);
  double gc_per_thread_factor = 0.06;
  double gc_superlinear_exponent = 1.8;

  SimDuration response_handling_compute = Micros(8);  // continuation turn
  // Deep copy of LPC arguments (actor isolation): base + per-byte. Far
  // cheaper than serialization, which pays reflection/allocation costs in
  // the modeled managed runtime.
  SimDuration lpc_compute = Micros(8);
  double lpc_ns_per_byte = 40.0;
  SimDuration control_compute = Micros(4);            // directory & partition msgs
  SimDuration activation_compute = Micros(40);        // actor activation turn
  uint32_t control_bytes = 96;                        // modeled control msg size

  size_t location_cache_capacity = 1 << 17;
  int max_hops = 3;
  PlacementPolicy placement = PlacementPolicy::kRandom;

  // In-flight call timeout (failed Response delivered to the continuation);
  // required for liveness under server crashes and overload drops.
  SimDuration call_timeout = Seconds(15);
  SimDuration timeout_sweep_period = Seconds(1);
};

class Server : public ThreadHost {
 public:
  enum StageIndex : int {
    kReceive = 0,
    kWorker = 1,
    kServerSender = 2,
    kClientSender = 3,
    kNumStages = 4,
  };

  Server(Simulation* sim, Cluster* cluster, ServerId id, ServerConfig config, uint64_t seed);
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Called by the Cluster after the network node is registered.
  void set_node(NodeId node) { node_ = node; }
  NodeId node() const { return node_; }
  ServerId id() const { return id_; }

  // Wired by the Cluster: the engine shard this server runs on, and the
  // shard-local metrics instance it counts into (shard 0 / the only instance
  // in serial mode).
  void set_shard(int shard) { shard_ = shard; }
  int shard() const { return shard_; }
  void set_metrics(ClusterMetrics* metrics) { metrics_ = metrics; }

  // Network delivery entry point (wired by the Cluster).
  void OnNetworkMessage(NodeId from, uint32_t bytes, EnvelopePtr env);

  // ThreadHost:
  int num_stages() override { return kNumStages; }
  Stage& stage(int i) override { return *stages_[static_cast<size_t>(i)]; }
  int cores() const override { return config_.cores; }
  void ApplyThreadAllocation(const std::vector<int>& threads) override;

  CpuModel& cpu() { return *cpu_; }
  LocationCache& location_cache() { return location_cache_; }
  DirectoryShard& directory_shard() { return directory_shard_; }
  const ServerConfig& config() const { return config_; }

  // --- Activation queries ---
  bool IsActive(ActorId actor) const { return activations_.Contains(actor); }
  int64_t num_activations() const { return static_cast<int64_t>(activations_.size()); }
  // Actors currently active on this server, in activation-slab slot order.
  std::vector<ActorId> ActiveActors() const;

  // --- Migration (used by the partition agent) ---
  // True if the actor is active and has no running/queued turn, no open call
  // context, and no pending sub-call (safe to deactivate).
  bool IsMigratable(ActorId actor) const;
  // Deactivates and primes caches so the next call lands on `dest`.
  // Returns false if the actor is not currently migratable.
  bool MigrateActor(ActorId actor, ServerId dest);
  uint64_t migrations_out() const { return migrations_out_; }

  // Deactivates an idle actor without a destination hint (models Orleans'
  // idle-activation collection and directory-shard churn): the activation is
  // dropped, its directory entry unregistered, and the next call re-places
  // it from scratch. Returns false if the actor is not currently migratable.
  bool DeactivateActor(ActorId actor);

  // Testing backdoor: force-activates `actor` locally without consulting the
  // directory. Deliberately violates the single-activation protocol — used
  // only by the chaos harness to prove the invariant checker detects
  // duplicate activations. Never call outside tests.
  void ForceActivateForTest(ActorId actor);

  // --- Crash injection ---
  // Drops every activation, mailbox, parked message and pending call.
  // In-flight calls from other servers eventually fail via timeouts.
  void Crash();

  // The server's partition agent (wired by the Cluster; null when
  // partitioning is off). The server reports every actor-to-actor message
  // its actors send to it and dispatches partition-protocol control
  // messages to it.
  void set_partition_agent(PartitionAgent* agent) { partition_agent_ = agent; }

  // Sends a runtime control message to another server (or loops back to this
  // one); used by the partition agent for the exchange protocol.
  void SendControl(ServerId dest, ControlPayload payload);

  // Lifetime message counters (actor-to-actor application messages only).
  uint64_t remote_app_messages() const { return remote_app_messages_; }
  uint64_t local_app_messages() const { return local_app_messages_; }
  uint64_t activations_started() const { return activations_started_; }
  // Unregister fences currently held (see pending_unregisters_).
  size_t num_unregister_fences() const { return pending_unregisters_.size(); }

 private:
  friend class ServerCallContext;

  static constexpr uint32_t kNilSlot = 0xFFFFFFFFu;

  struct Activation {
    Actor* instance = nullptr;  // owned by the Cluster's state store
    bool busy = false;          // a turn is running or queued in the worker stage
    bool activation_pending = true;  // first turn pays the activation cost
    int open_contexts = 0;      // delivered calls not yet replied to
    int pending_subcalls = 0;   // sub-calls awaiting a response
    uint64_t dir_token = 0;     // token of the directory registration backing us
    RingBuffer<EnvelopePtr> mailbox;
  };

  struct ParkedCalls {
    std::vector<EnvelopePtr> entries;
    SimTime since = 0;
  };

  // One outstanding sub-call, from IssueCall until its continuation's
  // worker-stage turn runs. While the response is awaited the slot is
  // *pending*: `seq` is the call's call_id.seq and the slot is linked into
  // the pending FIFO. HandleResponse/FailPendingCall unlink it, clear `seq`
  // and park the Response beside the continuation; the turn's event captures
  // only [this, slot], so it stays inline in the event engine. Freed slots
  // recycle through a free list threaded over `next`.
  struct CallSlot {
    uint64_t seq = 0;  // nonzero exactly while pending
    SimTime issued_at = 0;
    ActorId issuer = kNoActor;  // actor awaiting the response (kNoActor: none)
    ResponseFn on_response;
    Response response;
    uint32_t prev = kNilSlot;  // pending FIFO (doubly linked: answers unlink anywhere)
    uint32_t next = kNilSlot;  // pending FIFO, or free list
    bool remote = false;
  };

  // -- message paths --
  void HandleControl(const Envelope& env, NodeId from);
  void RouteCall(EnvelopePtr env);
  void ResolveViaDirectory(EnvelopePtr env);
  // Asks `actor`'s home directory shard where it lives: answered locally
  // (deferred through the event queue) when this server is the home, else by
  // a DirLookupRequest. The answer arrives at OnDirectoryAnswer.
  void LookUpInDirectory(ActorId actor);
  void OnDirectoryAnswer(ActorId actor, ServerId owner, uint64_t token);
  void ActivateAndDeliver(EnvelopePtr env, uint64_t token);
  // Inserts a fresh activation record for `actor`, which must not be active.
  void CreateActivation(ActorId actor, uint64_t token);
  // Deactivates + unregisters, fencing the in-flight unregister so a racing
  // lookup answer cannot resurrect the doomed registration.
  void DropActivationAndUnregister(ActorId actor);
  void DeliverLocalCall(EnvelopePtr env);
  void StartTurn(ActorId actor, EnvelopePtr env);
  void FinishTurn(ActorId actor);
  void HandleResponse(EnvelopePtr env);

  // -- sending --
  void SendToServer(ServerId dest, EnvelopePtr env);
  void SendToClient(NodeId client_node, EnvelopePtr env);
  void ForwardCall(EnvelopePtr env, ServerId dest);

  // -- sub-call issue (from call contexts) --
  void IssueCall(ActorId from_actor, ActorId target, MethodId method, uint64_t app_data,
                 uint32_t bytes, ResponseFn on_response);
  void CompleteReply(ActorId from_actor, const Envelope& original_call, uint32_t bytes);

  // -- call slab --
  uint32_t AcquireCallSlot();
  void UnlinkPendingCall(uint32_t slot);
  void RunCallSlot(uint32_t slot);
  void FreeCallSlot(uint32_t slot);

  // -- call contexts --
  ServerCallContext* AcquireContext(EnvelopePtr call);
  void FreeContext(ServerCallContext* ctx);

  ServerId SuggestPlacement(ActorId actor);
  SimDuration SampleCost(SimDuration mean);
  SimDuration DeserializeCost(uint32_t bytes);
  SimDuration SerializeCost(uint32_t bytes);
  void SweepTimeouts();
  void FailPendingCall(uint32_t slot);
  void NoteAppSend(ActorId from, ActorId to, ServerId dest_server, bool remote);

  Simulation* sim_;
  Cluster* cluster_;
  const ServerId id_;
  ServerConfig config_;
  Rng rng_;
  NodeId node_ = kNoNode;
  int shard_ = 0;
  ClusterMetrics* metrics_ = nullptr;

  std::unique_ptr<CpuModel> cpu_;
  std::vector<std::unique_ptr<Stage>> stages_;

  // Flat bytes per activation instead of a heap node (the dominant per-actor
  // overhead at Halo scale), and a recycled slot keeps its mailbox buffer,
  // so deactivate/re-activate churn stops allocating mailboxes. A Find
  // pointer does not survive an activation (Insert may grow the slab).
  SlabMap<ActorId, Activation> activations_;
  LocationCache location_cache_;
  DirectoryShard directory_shard_;

  // Sub-calls issued from this node: one CallSlot each, live until the
  // continuation's turn runs, so memory is O(outstanding calls). A call's
  // seq is (per-server counter << 32) | slot: a response indexes its slot
  // directly and is accepted only if the slot still carries that seq, so a
  // response to a call that timed out, was dropped by a crash, or whose slot
  // now holds a newer call is ignored without any lookup. The counter starts
  // at 1, so no seq is 0 (the one-way marker).
  std::vector<CallSlot> call_slots_;
  uint32_t call_free_ = kNilSlot;
  uint64_t next_call_seq_ = 1;
  // Pending slots in issue order. call_timeout is constant, so issue order
  // is deadline order: SweepTimeouts pops expired calls off the head.
  uint32_t pending_head_ = kNilSlot;
  uint32_t pending_tail_ = kNilSlot;

  // Calls parked while a directory lookup is in flight, keyed by actor.
  // SweepTimeouts retries lost lookups in slot order, so the retry order is
  // a function of the server's park history, never of hash layout.
  SlabMap<ActorId, ParkedCalls> parked_calls_;
  // Retired parked-entry buffers, recycled by the next park so the
  // park/drain cycle stops allocating vectors in steady state.
  std::vector<std::vector<EnvelopePtr>> parked_entry_pool_;
  // Reused by SweepTimeouts' retry pass (collect-then-act; see the comment
  // there).
  std::vector<ActorId> sweep_retry_scratch_;
  uint64_t next_exchange_token_ = 1;

  // Registration tokens this server has unregistered but whose DirUnregister
  // message may still be in flight to a remote home shard. A directory
  // answer naming us owner under a fenced token must not be adopted: the
  // registration is doomed, so we re-resolve instead. An answer under any
  // other token clears the fence (tokens are monotone per shard, so the
  // fenced registration is gone for good by then). Fences expire after
  // call_timeout: past that, the unregister either landed (the token could
  // no longer be served) or was lost, and re-adopting the registration is
  // safe — without the expiry, a dropped unregister would park the actor's
  // calls forever.
  struct UnregisterFence {
    uint64_t token = 0;
    SimTime expires = 0;
  };
  // An expired fence is inert, so SweepTimeouts erases it by walking the
  // slab. A queue in expiry order would be no cheaper to sweep and would
  // hold every fence for the full call_timeout, though most are cleared by
  // a directory answer within milliseconds.
  SlabMap<ActorId, UnregisterFence> pending_unregisters_;

  // Every call context this server ever made; the server is their only
  // owner. A context is parked on free_contexts_ (poisoned under ASan), held
  // by the turn that delivers its call, or — when the actor did not reply
  // within the turn — retained until its Reply() runs from a sub-call
  // continuation, which parks it again. A retained context whose turn began
  // before the latest Crash() is never parked again: continuations may still
  // hold it, so it stays allocated (and inert) until the server is
  // destroyed.
  std::vector<std::unique_ptr<ServerCallContext>> contexts_;
  std::vector<ServerCallContext*> free_contexts_;

  PartitionAgent* partition_agent_ = nullptr;
  uint64_t migrations_out_ = 0;
  uint64_t remote_app_messages_ = 0;
  uint64_t local_app_messages_ = 0;
  uint64_t activations_started_ = 0;
  uint64_t crash_epoch_ = 0;
};

}  // namespace actop

#endif  // SRC_RUNTIME_SERVER_H_
