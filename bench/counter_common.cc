#include "bench/counter_common.h"

#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"

namespace actop {

ClusterConfig MakeCounterClusterConfig(const CounterExperimentConfig& config) {
  ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.seed = config.seed;
  UseSingleServerGcProfile(&cfg.server);
  cfg.enable_thread_optimization = config.thread_optimization;
  cfg.thread_controller.period = Seconds(1);
  cfg.thread_controller.eta = 100e-6;
  return cfg;
}

CounterExperimentResult RunCounterExperiment(const CounterExperimentConfig& config) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, MakeCounterClusterConfig(config));
  CounterWorkloadConfig w;
  w.num_actors = config.num_actors;
  w.request_rate = config.request_rate;
  w.seed = config.seed ^ 0xfeed;
  CounterWorkload workload(&cluster, w);
  Server& server = cluster.server(0);
  server.ApplyThreadAllocation(
      {config.threads[0], config.threads[1], config.threads[2], config.threads[3]});
  workload.Start();
  cluster.StartOptimizers();

  sim.RunUntil(config.warmup);
  workload.clients().ResetStats();
  for (int i = 0; i < Server::kNumStages; i++) {
    server.stage(i).TakeWindow();
  }
  const double busy0 = server.cpu().busy_core_nanos();
  const SimTime t0 = sim.now();
  sim.RunUntil(t0 + config.measure);
  const double busy1 = server.cpu().busy_core_nanos();

  CounterExperimentResult result;
  result.latency = workload.clients().latency();
  result.cpu_utilization =
      (busy1 - busy0) /
      (static_cast<double>(server.cpu().cores()) * static_cast<double>(sim.now() - t0));

  // Per-request breakdown (Fig 4): with one request per stage event, mean
  // per-stage queue wait and in-service time divide by completed requests;
  // shares are relative to the end-to-end client mean.
  const double requests = static_cast<double>(result.latency.count());
  const double e2e_mean = result.latency.mean();
  double accounted = 0.0;
  for (int i = 0; i < Server::kNumStages; i++) {
    const StageWindow win = server.stage(i).TakeWindow();
    if (requests <= 0 || e2e_mean <= 0) {
      continue;
    }
    const double queue = win.sum_queue_wait / requests;
    const double processing = win.sum_wallclock / requests;
    result.stages[static_cast<size_t>(i)].queue_share = queue / e2e_mean;
    result.stages[static_cast<size_t>(i)].processing_share = processing / e2e_mean;
    accounted += (queue + processing) / e2e_mean;
  }
  if (e2e_mean > 0) {
    // Two one-way network traversals (client -> server -> client).
    const double network = 2.0 * static_cast<double>(Micros(250));
    result.network_share = network / e2e_mean;
    accounted += result.network_share;
    result.other_share = std::max(0.0, 1.0 - accounted);
  }
  for (int i = 0; i < Server::kNumStages; i++) {
    result.final_threads.push_back(server.stage(i).threads());
  }
  return result;
}

}  // namespace actop
