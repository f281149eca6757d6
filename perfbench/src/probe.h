// Reads the layers' public counters from outside the program.
//
// Snapshots are taken only between RunUntil calls, while every shard is
// parked, and touch only lifetime totals, Stage::current_window() and other
// const accessors. Stage::TakeWindow() is never called: the thread
// controller consumes it on halo_actop, so calling it would change the
// simulation.

#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "perfbench/src/alloc_count.h"
#include "perfbench/src/workloads.h"
#include "src/runtime/server.h"

namespace perfbench {

inline constexpr int kStages = actop::Server::kNumStages;
inline constexpr std::array<const char*, kStages> kStageNames = {
    "receive", "worker", "server_sender", "client_sender"};

struct StageCounters {
  uint64_t completions = 0;  // lifetime, summed over servers
  uint64_t rejections = 0;
  // Current measurement window, summed over servers. The thread controller
  // restarts it every control period on halo_actop.
  uint64_t window_completions = 0;
  double window_queue_wait_ns = 0.0;
  uint64_t queue_len_max = 0;  // longest queue on any server, at this instant
  int threads = 0;             // summed over servers
};

struct Counters {
  SimTime sim_now = 0;
  // sim
  uint64_t events = 0;
  std::vector<uint64_t> shard_events;
  uint64_t pending = 0;
  // net
  uint64_t net_msgs = 0;
  uint64_t net_bytes = 0;
  uint64_t net_dropped = 0;
  // seda
  std::array<StageCounters, kStages> stages;
  double cpu_busy_ns = 0.0;
  int cores_total = 0;
  // runtime
  uint64_t remote_app_msgs = 0;
  uint64_t local_app_msgs = 0;
  uint64_t activations_started = 0;
  uint64_t migrations = 0;
  int64_t live_activations = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t timeouts = 0;
  uint64_t outstanding = 0;
  // core
  uint64_t partition_rounds = 0;
  uint64_t exchanges_accepted = 0;
  uint64_t exchanges_rejected = 0;
  int threads_total = 0;
  // actor
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t directory_entries = 0;
  uint64_t churned = 0;
  // load / workload
  uint64_t arrivals = 0;
  uint64_t burst_arrivals = 0;
  uint64_t games_started = 0;
  // host
  AllocCounts heap;
};

Counters Snapshot(Instance& instance);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
