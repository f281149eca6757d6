// Simulated datacenter network.
//
// Nodes (servers and client frontends) exchange messages; delivery is delayed
// by a fixed one-way latency plus a size/bandwidth term. The paper's Figure 4
// shows wire time is a small part of end-to-end latency (~1%) relative to
// queuing, so a simple latency+bandwidth model preserves the local/remote
// asymmetry that drives the results.
//
// Every message is one pooled Envelope (src/runtime/envelope_pool.h), moved
// in by Send and moved out to the destination's handler: the network owns it
// while it is on the wire, and a message the fault injector drops (or one
// still in flight when the network is destroyed) goes straight back to the
// envelope pool. The declared byte size (used for the bandwidth term and for
// serialization-cost modeling at the endpoints) travels alongside.
//
// Hot path: each in-flight message parks its envelope and routing fields in
// a slab slot so the delivery event's capture is just [this, shard, slot] —
// small enough to stay inline in the engine's InlineTask, making Send
// allocation-free at steady state (slots recycle through a Slab,
// src/common/slab.h).
//
// The network runs over a ShardedEngine: each shard owns a "lane" — its own
// in-flight slab, counters, and outbound sequence space. A message between
// nodes on the same shard (with one shard: every message) is one delivery
// event on that shard's Simulation. A cross-shard message is appended to
// the per-(src,dst) outbox with its precomputed arrival time; the first push
// into an empty outbox also registers the source on the destination's
// pending-inbox worklist (an atomic slot reservation), so the per-window
// drain visits only sources that actually sent — O(active sources), not
// O(K) — which matters when K reaches the hundreds. At the window barrier each destination sorts
// its worklist (ascending src restores the deterministic gather order),
// gathers the outboxes, and merges the batch into a per-lane `staged` run
// ordered by (when, drain epoch, src_shard, seq) — deterministic for a fixed
// shard count, independent of thread scheduling. Instead of one heap event
// per message, each lane's cursor — a persistent engine timer (the timer
// track in src/sim/simulation.h) — delivers every staged message due at its
// instant and re-arms itself at the next distinct arrival time, so a drain
// of B messages costs at most one timer re-key (when the run was empty or a
// new head arrives earlier), not B schedules. The fixed one-way latency is the
// engine's lookahead: every cross-shard arrival time is at least one latency
// after its send, hence at or beyond the window end, so draining at barriers
// can never deliver into a window already running. That argument needs the
// send to happen inside a window: a cross-shard message sent outside one
// (setup code before the first RunUntil, rail tasks) skips the outbox and is
// scheduled directly on the destination lane, which is safe because every
// shard is then parked at the same clock.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/ids.h"
#include "src/common/sim_time.h"
#include "src/common/slab.h"
#include "src/runtime/envelope_pool.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"

namespace actop {

struct NetworkConfig {
  SimDuration one_way_latency = Micros(250);
  // Wire time per byte in ns/byte; 1 Gb/s == 8 ns/byte.
  double ns_per_byte = 8.0;
};

// Verdict of the fault injector for one message (chaos testing). Extra delay
// lets later messages overtake this one, which exercises reordering paths.
struct FaultDecision {
  bool drop = false;
  SimDuration extra_delay = 0;
};

class Network {
 public:
  using DeliverFn = std::function<void(NodeId from, uint32_t bytes, EnvelopePtr msg)>;
  // Inspects a message about to be sent and decides its fate. The injector
  // sees every message (application and control, server and client links).
  // `src_shard` is the shard issuing the send (0 with one shard) and `now`
  // its current simulated time; in parallel mode the injector runs
  // concurrently on every shard and must draw from per-shard streams.
  using FaultFn = std::function<FaultDecision(NodeId from, NodeId to, uint32_t bytes,
                                              int src_shard, SimTime now)>;

  // One lane per engine shard. Registers the engine's exchange hook; the
  // engine must outlive this network. Requires one_way_latency >= 0 and, on
  // a parallel engine, one_way_latency >= engine lookahead (the
  // conservative-window guarantee).
  Network(ShardedEngine* engine, NetworkConfig config);

  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers a node on the given shard; `deliver` is invoked (via that
  // shard's event queue) for each message addressed to it. Returns the
  // node's id. Setup-time only.
  NodeId AddNode(DeliverFn deliver, int shard = 0);

  // Sends a message of the given (modeled) size from `from` to `to`. Must be
  // called from `from`'s shard (with one shard: trivially true).
  void Send(NodeId from, NodeId to, uint32_t bytes, EnvelopePtr msg);

  // Installs (or, with nullptr, removes) the chaos fault injector.
  // Coordinator context only (setup, rail tasks).
  void set_fault_injector(FaultFn fn) { fault_injector_ = std::move(fn); }

  uint64_t total_messages() const { return SumLanes(&Lane::total_messages); }
  uint64_t total_bytes() const { return SumLanes(&Lane::total_bytes); }
  uint64_t dropped_messages() const { return SumLanes(&Lane::dropped_messages); }
  uint64_t delayed_messages() const { return SumLanes(&Lane::delayed_messages); }
  int shards() const { return static_cast<int>(lanes_.size()); }
  const NetworkConfig& config() const { return config_; }

 private:
  // One message on the wire.
  struct InFlight {
    EnvelopePtr msg;
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    uint32_t bytes = 0;
  };

  // A message crossing shards: parked in the src->dst outbox until the
  // window barrier. `when` is the absolute arrival time (computed at send,
  // on the sender's clock); `seq` the sender lane's monotone sequence.
  struct OutMsg {
    SimTime when = 0;
    uint64_t seq = 0;
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    uint32_t bytes = 0;
    EnvelopePtr msg;
  };

  // Per-shard network state. Cacheline-aligned: lanes for different shards
  // are written concurrently during a window.
  struct alignas(64) Lane {
    Simulation* sim = nullptr;
    Slab<InFlight> in_flight;
    uint64_t next_out_seq = 0;
    uint64_t total_messages = 0;
    uint64_t total_bytes = 0;
    uint64_t dropped_messages = 0;
    uint64_t delayed_messages = 0;
    // Merge scratch for DrainInbound; reused every window.
    std::vector<OutMsg> inbound_scratch;
    // Inbound messages merged but not yet delivered, ordered by `when`
    // (ties: drain epoch, then src, then seq). staged[staged_head..) are
    // live; the consumed prefix is compacted away at the next drain. One
    // cursor timer per lane walks this run: whenever staged is non-empty,
    // the cursor is armed at staged[staged_head].when (== cursor_when).
    std::vector<OutMsg> staged;
    size_t staged_head = 0;
    Simulation::TimerId cursor = 0;
    SimTime cursor_when = 0;
    // Cursor timer context.
    Network* net = nullptr;
    int shard = 0;
  };

  // Destination-side worklist of sources with a non-empty outbox this
  // window. Sources reserve distinct slots with a relaxed fetch_add (the
  // window barriers provide all ordering); the drain sorts the slots.
  struct alignas(64) PendingInbox {
    std::atomic<uint32_t> count{0};
  };

  uint32_t AcquireSlot(Lane& lane, NodeId from, NodeId to, uint32_t bytes, EnvelopePtr msg);
  void Deliver(int shard, uint32_t slot);
  // Engine exchange hook: runs on shard `dst`'s worker at the window
  // barrier; merges the registered inbound outboxes into dst's staged run
  // and pins the cursor timer at its head.
  void DrainInbound(int dst);
  // Cursor timer body: delivers every staged message due at the current
  // instant, then re-arms for the next distinct arrival time.
  void CursorDeliver(int dst);

  uint64_t SumLanes(uint64_t Lane::* field) const {
    uint64_t total = 0;
    for (const Lane& lane : lanes_) {
      total += lane.*field;
    }
    return total;
  }

  ShardedEngine* engine_;
  NetworkConfig config_;
  std::vector<DeliverFn> nodes_;
  std::vector<int32_t> node_shard_;
  std::vector<Lane> lanes_;
  // outboxes_[src * shards + dst], dst != src. Written by src's worker
  // during the window, drained by dst's worker at the barrier.
  std::vector<std::vector<OutMsg>> outboxes_;
  // pending_[dst] counts the live entries in pending_src_[dst * shards ..];
  // each entry names a source whose outbox to dst is non-empty. Distinct
  // slots are written by distinct sources, so only the counter is atomic.
  std::unique_ptr<PendingInbox[]> pending_;
  std::vector<int32_t> pending_src_;
  FaultFn fault_injector_;
};

}  // namespace actop

#endif  // SRC_NET_NETWORK_H_
