// Seed-driven chaos controller.
//
// One RNG seed fully determines a fault schedule — server crashes, message
// drops/delays (and therefore reorderings), directory-shard churn, and forced
// migrations racing the §4.2 pairwise exchange protocol — injected through
// the engine's rail, the Network fault injector, and the Cluster
// failure-injection entry points. Because the engine is deterministic for a
// fixed shard count, a failing seed replays byte-for-byte; FailureReport()
// prints the seed and the schedule prefix needed to reproduce it.
//
// Tick-level faults (crashes, churn, forced migrations) run every 50 ms on
// the engine's rail, so they always observe a consistent cut: with one shard
// a rail task is an ordinary shard-0 event, and with more it runs on the
// coordinator after every shard has reached its time.
//
// The controller also runs the InvariantChecker's instant checks and
// accumulates violations. Two things still differ by shard count, because
// unifying either would move the pinned one-shard reports or thin out the
// one-shard sweeps:
//   * sweeps: with one shard they run from the Simulation after-event hook
//     every `check_every_events` dispatched events; with more they run on
//     the rail at the tick period (`check_every_events` only gates whether
//     they run at all — event counts are per-shard and scheduling-dependent
//     in parallel).
//   * per-message fault draws: with one shard they come from one xoshiro
//     stream; with more, from counter-based per-shard streams (CounterRng
//     keyed (seed, shard)) so decisions depend only on each shard's own
//     message order — deterministic for a fixed shard count.

#ifndef SRC_TESTING_CHAOS_H_
#define SRC_TESTING_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/counter_rng.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/net/network.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/testing/invariants.h"

namespace actop {

struct ChaosConfig {
  uint64_t seed = 1;

  // Faults are injected only inside [faults_start, faults_end); invariant
  // checking runs for as long as the controller is started.
  SimTime faults_start = 0;
  SimTime faults_end = Seconds(10);

  // Per-tick fault probabilities / counts.
  double crash_prob = 0.0;            // crash + instant-replace a random server
  double directory_churn_prob = 0.0;  // churn a random directory shard
  int forced_migrations_per_tick = 0; // migrate random idle actors to random servers

  // Per-message network faults. Delayed messages overtake undelayed ones on
  // the same link, so delay_prob > 0 also exercises reordering.
  double drop_prob = 0.0;
  double delay_prob = 0.0;  // extra delay uniform in [0, 20 ms]
  // Whether client<->server links are also faulty (server<->server links
  // always are). Off for scenarios with strict reply accounting.
  bool fault_client_links = false;

  // Run the instant invariant checks every N dispatched events (0 disables).
  uint32_t check_every_events = 256;

  // Guarded bug-injection demo: when set, the controller force-activates this
  // actor on two servers at faults_start, deliberately breaking the
  // single-activation invariant so tests can prove the checker catches it.
  ActorId duplication_bug_actor = kNoActor;
};

struct ChaosEvent {
  SimTime at = 0;
  std::string what;
};

class ChaosController {
 public:
  // One-shard engines get hook-driven sweeps and one message stream;
  // parallel engines get rail sweeps and per-shard message streams. The
  // engine must be the cluster's.
  ChaosController(ShardedEngine* engine, Cluster* cluster, ChaosConfig config);
  ~ChaosController();

  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  // Installs the network fault injector and the sweeps, and schedules the
  // fault ticks. Call once, before running the simulation.
  void Start();

  // Uninstalls all hooks; no further faults or checks after this.
  void Stop();

  InvariantChecker& checker() { return checker_; }

  // Invariant violations observed so far (the first 16; `total_violations`
  // keeps the true count).
  const std::vector<std::string>& violations() const { return violations_; }
  uint64_t total_violations() const { return total_violations_; }

  // The recorded fault schedule (the first 512 faults).
  const std::vector<ChaosEvent>& schedule() const { return schedule_; }

  uint64_t crashes() const { return crashes_; }
  uint64_t shard_churns() const { return shard_churns_; }
  uint64_t forced_migrations() const { return forced_migrations_; }
  uint64_t dropped_messages() const;
  uint64_t delayed_messages() const;

  // Human-readable reproduction report: seed, violations, and the first
  // `schedule_prefix` scheduled faults.
  std::string FailureReport(size_t schedule_prefix = 12) const;

 private:
  void Tick();
  void RailCheck();
  void InjectDuplicationBug();
  void Record(std::string what);
  void RecordViolations(const std::vector<std::string>& found);
  FaultDecision OnMessage(NodeId from, NodeId to, uint32_t bytes, int src_shard, SimTime now);
  bool parallel() const { return engine_->parallel(); }

  // Per-shard message-fault state; lanes for different shards are hit
  // concurrently from Network::Send, hence the cacheline alignment.
  struct alignas(64) MessageLane {
    MessageLane(uint64_t seed, uint64_t shard) : rng(seed, shard) {}
    CounterRng rng;
    uint64_t dropped = 0;
    uint64_t delayed = 0;
  };

  Simulation* sim_;  // the engine's shard 0
  ShardedEngine* engine_;
  Cluster* cluster_;
  ChaosConfig config_;
  // Independent streams: tick-level fault draws must not shift when the
  // per-message traffic pattern changes, and vice versa.
  Rng tick_rng_;
  Rng message_rng_;                        // shards == 1
  std::vector<MessageLane> message_lanes_; // parallel mode
  InvariantChecker checker_;

  bool started_ = false;
  EventId tick_rail_ = 0;
  EventId check_rail_ = 0;  // parallel mode
  uint64_t events_seen_ = 0;

  std::vector<std::string> violations_;
  uint64_t total_violations_ = 0;
  std::vector<ChaosEvent> schedule_;
  uint64_t crashes_ = 0;
  uint64_t shard_churns_ = 0;
  uint64_t forced_migrations_ = 0;
  uint64_t dropped_messages_ = 0;
  uint64_t delayed_messages_ = 0;
};

}  // namespace actop

#endif  // SRC_TESTING_CHAOS_H_
