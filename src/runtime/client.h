// Client frontends: open-loop load generation and directed calls.
//
// ClientPool models the paper's 15 frontend servers as one network node
// issuing an aggregate Poisson request stream. Each request picks a random
// gateway server (Orleans clients connect to gateways; the gateway forwards
// to the target actor's silo when needed). End-to-end latency is measured at
// the client from send to response, exactly as the paper records it.
// DirectClient issues single calls in CallContext::Call's argument shape.

#ifndef SRC_RUNTIME_CLIENT_H_
#define SRC_RUNTIME_CLIENT_H_

#include <functional>

#include "src/actor/actor.h"
#include "src/common/flat_hash_map.h"
#include "src/common/histogram.h"
#include "src/common/ids.h"
#include "src/common/ring_buffer.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/runtime/cluster.h"
#include "src/runtime/envelope_pool.h"

namespace actop {

struct ClientConfig {
  double request_rate = 1000.0;  // aggregate requests per second
  uint32_t request_bytes = 256;
  SimDuration timeout = Seconds(10);
  uint64_t seed = 7;
};

class ClientPool {
 public:
  // Picks the target (actor, method) for the next request. Returning false
  // skips this arrival (e.g. no eligible actor yet).
  using TargetFn = std::function<bool(Rng&, ActorId*, MethodId*)>;

  // The pool's node and timers live on the cluster's driver shard.
  ClientPool(Cluster* cluster, ClientConfig config, TargetFn target_fn);

  void Start();
  void Stop();

  // Open-loop injection path: issues one request immediately, independent of
  // the pool's own Poisson arrival chain and of any outstanding responses.
  // External arrival processes (src/load/) drive scenario traffic through
  // these — Inject() picks the target via the pool's TargetFn, InjectTo()
  // addresses a specific actor (viral-cascade reposts, reconnect storms).
  void Inject();
  void InjectTo(ActorId target, MethodId method);

  const Histogram& latency() const { return latency_; }
  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }
  uint64_t timeouts() const { return timeouts_; }
  // Requests in flight (issued, not yet completed or timed out).
  uint64_t outstanding() const { return pending_.size(); }

  // Clears measurements (used to discard warm-up).
  void ResetStats();

 private:
  void ScheduleNextArrival();
  void IssueRequest();
  void SendCall(ActorId target, MethodId method);
  void OnDeliver(EnvelopePtr env);
  void SweepTimeouts();

  Simulation* sim_;
  Cluster* cluster_;
  ClientConfig config_;
  TargetFn target_fn_;
  Rng rng_;
  NodeId node_ = kNoNode;
  bool running_ = false;

  // seq -> send time. Touched once per request and once per response and
  // never iterated, so the open-addressing layout can never decide replay
  // order; FlatHashMap keeps the per-request bookkeeping off the heap.
  FlatHashMap<uint64_t, SimTime> pending_;
  // Monotone deadlines, swept FIFO; ring keeps steady state allocation-free.
  RingBuffer<std::pair<SimTime, uint64_t>> timeout_queue_;
  uint64_t next_seq_ = 1;

  Histogram latency_;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t timeouts_ = 0;
};

// A client node for directed (non-rate-based) calls: used by workload
// drivers (e.g. Halo's matchmaking service) to invoke actors on demand.
class DirectClient {
 public:
  // The client's node lives on the cluster's driver shard.
  DirectClient(Cluster* cluster, uint64_t seed);

  // Issues a call through a random gateway, in CallContext::Call's argument
  // shape; without a continuation the call is one-way.
  void Call(ActorId target, MethodId method, uint32_t payload_bytes,
            ResponseFn on_response = nullptr, uint64_t app_data = 0);

 private:
  void OnDeliver(EnvelopePtr env);

  Cluster* cluster_;
  Rng rng_;
  NodeId node_ = kNoNode;
  // seq -> continuation; never iterated.
  FlatHashMap<uint64_t, ResponseFn> pending_;
  uint64_t next_seq_ = 1;
};

}  // namespace actop

#endif  // SRC_RUNTIME_CLIENT_H_
