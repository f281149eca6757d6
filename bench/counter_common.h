// Shared harness for the single-server Counter experiments (Figures 4, 5).
//
// The counter application runs on one 8-core server at 15K requests/sec with
// 8K actors (§3). This single-server setup uses the heavier GC profile (the
// machine sustains nearly 2x the per-server message rate of the Halo
// cluster, so pauses and allocation pressure are proportionally larger);
// EXPERIMENTS.md records the parameterization.

#ifndef BENCH_COUNTER_COMMON_H_
#define BENCH_COUNTER_COMMON_H_

#include <array>

#include "src/common/histogram.h"
#include "src/common/sim_time.h"
#include "src/runtime/cluster.h"
#include "src/workload/counter.h"

namespace actop {

struct CounterExperimentConfig {
  double request_rate = 15000.0;
  int num_actors = 8000;
  // Thread allocation: {receive, worker, server_sender, client_sender}.
  std::array<int, 4> threads = {8, 8, 8, 8};
  SimDuration warmup = Seconds(5);
  SimDuration measure = Seconds(20);
  uint64_t seed = 17;
  bool thread_optimization = false;
};

struct StageBreakdown {
  double queue_share = 0.0;       // share of end-to-end mean latency
  double processing_share = 0.0;  // in-service wallclock share
};

struct CounterExperimentResult {
  Histogram latency;
  double cpu_utilization = 0.0;
  // Breakdown per stage in server order, plus network and "other".
  std::array<StageBreakdown, 4> stages;
  double network_share = 0.0;
  double other_share = 0.0;
  std::vector<int> final_threads;
};

// The heavier GC profile of a saturated single server (see the file comment;
// also used by the Figure 11a Heartbeat bench).
inline void UseSingleServerGcProfile(ServerConfig* server) {
  server->gc_base_duration = Millis(5);
  server->gc_per_thread_factor = 0.18;
}

ClusterConfig MakeCounterClusterConfig(const CounterExperimentConfig& config);
CounterExperimentResult RunCounterExperiment(const CounterExperimentConfig& config);

}  // namespace actop

#endif  // BENCH_COUNTER_COMMON_H_
