// Sharded simulation front-end: conservative time-window parallel execution.
//
// The cluster is partitioned into shards, each owning a private Simulation
// (its own indexed 4-ary event heap, slab, and sequence space). Shards run in
// parallel over windows [T, T + lookahead): the lookahead is the network's
// fixed one-way latency, so a message sent from one shard during a window
// cannot be due on another shard before the window closes — every cross-shard
// event lands at least one latency in the future. At each window barrier the
// shards exchange the cross-shard envelopes accumulated in per-(src,dst)
// outboxes (src/net/network.cc registers the exchange hook), merge them in
// the stable order (when, src_shard, seq), and the coordinator recomputes the
// next window from the global minimum next-event time.
//
// Determinism contract:
//   * shards == 1: RunUntil delegates byte-for-byte to the underlying
//     Simulation (identical dispatch order, identical clock movement), so
//     every golden, chaos and report-determinism test holds unchanged.
//   * shards == K: runs are bit-reproducible for fixed K. Each shard's
//     execution is a deterministic function of its own event order, and the
//     cross-shard merge order (when, src_shard, seq) is independent of
//     thread scheduling. Different K yield different (but each internally
//     deterministic) interleavings of same-instant events on different
//     shards — statistically equivalent, not byte-identical.
//
// The "rail" is a coordinator-side task track for cluster-global actions
// that must observe a consistent cross-shard cut (chaos fault ticks,
// invariant sweeps): a rail task at time R runs after every event with
// timestamp < R on every shard, before any event at R. Rail tasks and hooks
// run on the calling (coordinator) thread; rail scheduling is coordinator-
// context only (setup code, rail tasks, barrier hooks) — never from inside
// a shard event.
//
// Threading: RunUntil's caller is the coordinator and doubles as the shard-0
// worker; shards 1..K-1 get dedicated threads woken per window by an epoch
// counter. Window phases are separated by a sense-reversing tree barrier:
// arrivals combine up a 4-ary tree of cacheline-padded counters (each parent
// spins only on its own node) and the root flips a global sense word, so a
// phase costs O(K) uncontended lines instead of K RMWs racing on one
// counter. All waits spin briefly then yield (the yield keeps oversubscribed
// hosts — including single-core CI — functional).

#ifndef SRC_SIM_SHARDED_ENGINE_H_
#define SRC_SIM_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/sim_time.h"
#include "src/sim/simulation.h"

namespace actop {

struct ShardedEngineConfig {
  int shards = 1;
  // Conservative lookahead: every cross-shard message arrives at least this
  // far after it is sent. The network checks its one-way latency covers it.
  SimDuration lookahead = Micros(250);
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineConfig config);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int shards() const { return config_.shards; }
  bool parallel() const { return config_.shards > 1; }
  SimDuration lookahead() const { return config_.lookahead; }

  // Shard i's private event engine. Shard 0 is the driver shard: clients,
  // workload drivers, and all setup-time scheduling live there.
  Simulation& shard(int i) { return *sims_[static_cast<size_t>(i)]; }
  const Simulation& shard(int i) const { return *sims_[static_cast<size_t>(i)]; }
  Simulation& sim() { return *sims_[0]; }

  // Engine clock: advances to each rail point and to every RunUntil
  // deadline. Between barriers individual shard clocks trail it.
  SimTime now() const { return now_; }

  // True while a window runs: shard events are executing or their exchange
  // hooks are merging. False in coordinator context (setup code before or
  // between RunUntil calls, rail tasks), where every shard is parked and
  // every shard clock equals now() — and in the barrier hook, where they may
  // differ. Safe to read from shard events: the flag is published before the
  // window's epoch and cleared only after its last barrier.
  bool in_window() const { return in_window_; }

  // Total events executed across all shards.
  uint64_t events_executed() const;

  // Exchange hook: invoked once per shard per window barrier (concurrently,
  // each on its shard's worker thread) to merge that shard's inbound
  // cross-shard messages into its heap. Installed by the Network. Must be
  // set before the first RunUntil and not changed while running.
  void set_exchange_hook(std::function<void(int shard)> hook) {
    exchange_hook_ = std::move(hook);
  }

  // Barrier hook: invoked on the coordinator after every window's exchange
  // completes (all shard heaps quiescent) — cluster-global snapshots.
  void set_barrier_hook(std::function<void()> hook) { barrier_hook_ = std::move(hook); }

  // Schedules a coordinator task at absolute time `when` (>= now()). Rail
  // tasks at equal times run in scheduling order. Returns a handle for
  // CancelRail. Coordinator context only.
  uint64_t ScheduleRailAt(SimTime when, std::function<void()> fn);

  // Cancels a pending rail task; false for fired/cancelled/unknown handles.
  bool CancelRail(uint64_t id);

  // Runs all shards to `deadline` (inclusive), interleaving rail tasks at
  // their cut points, then advances every clock to `deadline`. Returns the
  // number of events executed. With shards == 1 and no pending rail tasks
  // this is exactly Simulation::RunUntil on the single shard.
  uint64_t RunUntil(SimTime deadline);

 private:
  void WorkerMain(int shard);
  void RunWindow(SimTime end);
  void AdvanceAll(SimTime t);
  void RunRailAt(SimTime r);

  // Sense-reversing combining-tree barrier. Each participant owns a
  // cacheline-padded node; children bump their parent's arrival counter, so
  // every spin loop watches a line only that participant's subtree writes.
  // The root flips the shared sense word to release the phase. Spin briefly,
  // then yield (single-core hosts live on the yield path).
  class TreeBarrier {
   public:
    explicit TreeBarrier(int n);
    // Participant `id` (0..n-1) arrives and blocks until all n have arrived.
    // Id 0 (the coordinator) releases the phase.
    void Wait(int id);

   private:
    static constexpr int kFanout = 4;
    struct alignas(64) Node {
      std::atomic<uint32_t> arrivals{0};
      uint32_t num_children = 0;
      uint32_t sense = 0;  // touched only by the owning participant
    };
    const int n_;
    std::atomic<uint32_t> sense_{0};
    std::unique_ptr<Node[]> nodes_;
  };

  ShardedEngineConfig config_;
  std::vector<std::unique_ptr<Simulation>> sims_;
  std::function<void(int)> exchange_hook_;
  std::function<void()> barrier_hook_;

  // Rail: ordered by (when, handle); handle order breaks same-instant ties
  // in scheduling order.
  std::map<std::pair<SimTime, uint64_t>, std::function<void()>> rail_;
  std::unordered_map<uint64_t, SimTime> rail_when_;
  uint64_t next_rail_id_ = 1;

  SimTime now_ = 0;
  bool in_window_ = false;

  // Worker coordination. window_end_ is published by the epoch increment
  // (release) and read after the epoch load (acquire).
  std::vector<std::thread> workers_;
  TreeBarrier barrier_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> shutdown_{false};
  SimTime window_end_ = 0;
};

}  // namespace actop

#endif  // SRC_SIM_SHARDED_ENGINE_H_
