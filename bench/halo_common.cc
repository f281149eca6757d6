#include "bench/halo_common.h"

#include "src/common/table.h"
#include "src/sim/simulation.h"

namespace actop {

ClusterConfig MakeHaloClusterConfig(const HaloExperimentConfig& config) {
  ClusterConfig cfg;
  cfg.num_servers = config.num_servers;
  cfg.seed = config.seed;
  cfg.enable_partitioning = config.partitioning;
  // Scaled from the paper's one-minute exchange rate limit by the same 1:25
  // per-game time factor as the workload (see HaloWorkloadConfig).
  cfg.partition.exchange_period = Seconds(1);
  cfg.partition.exchange_min_gap = Seconds(1);
  cfg.partition.max_peers_per_round = 4;
  cfg.partition.pairwise.candidate_set_size = 256;
  cfg.partition.pairwise.balance_delta = 200;
  cfg.partition.edge_sample_capacity = 16384;
  cfg.partition.edge_decay_period = Seconds(10);
  cfg.enable_thread_optimization = config.thread_optimization;
  cfg.thread_controller.period = Seconds(1);
  cfg.thread_controller.eta = 100e-6;  // the paper's calibrated η
  return cfg;
}

HaloWorkloadConfig MakeHaloWorkloadConfig(const HaloExperimentConfig& config) {
  HaloWorkloadConfig w;
  w.target_players = config.players;
  w.idle_pool_target = config.players / 100;  // the paper's 1% matchmaking pool
  w.request_rate = config.request_rate;
  w.seed = config.seed ^ 0x517cc1b7;
  // Game-status payloads: presence snapshots are heavyweight compared to the
  // Counter micro-benchmark's messages (calibrated; see EXPERIMENTS.md).
  w.request_bytes = 800;
  w.status_bytes = 1600;
  w.update_bytes = 1200;
  return w;
}

HaloExperimentResult RunHaloExperiment(const HaloExperimentConfig& config) {
  const ClusterConfig cluster_config = MakeHaloClusterConfig(config);
  ShardedEngineConfig engine_config;
  engine_config.shards = config.shards;
  // Lookahead = the network's one-way latency: the conservative window bound
  // that makes cross-shard messages arrive beyond the running window.
  engine_config.lookahead = cluster_config.network.one_way_latency;
  ShardedEngine engine(engine_config);
  Cluster cluster(&engine, cluster_config);
  HaloWorkload halo(&cluster, MakeHaloWorkloadConfig(config));
  halo.Start();
  cluster.StartOptimizers();

  HaloExperimentResult result;

  auto snapshot_busy = [&] {
    double busy = 0.0;
    for (int s = 0; s < cluster.num_servers(); s++) {
      busy += cluster.server(s).cpu().busy_core_nanos();
    }
    return busy;
  };

  // Warm-up with window sampling (the Fig 10a series spans warm-up too).
  for (SimTime t = config.window; t <= config.warmup; t += config.window) {
    engine.RunUntil(t);
    const auto w = cluster.TakeMetricsWindow();
    result.windows.push_back(HaloWindowSample{t, w.remote_fraction(), w.migrations});
  }

  // Steady state: reset measurements, as the paper does after the initial
  // migration burst settles.
  halo.clients().ResetStats();
  cluster.ResetMetricsLatencies();
  if (config.on_measure_start) {
    config.on_measure_start();
  }
  const double busy0 = snapshot_busy();
  const SimTime measure_start = engine.now();
  const uint64_t migrations0 = cluster.total_migrations();

  for (SimTime t = measure_start + config.window; t <= measure_start + config.measure;
       t += config.window) {
    engine.RunUntil(t);
    const auto w = cluster.TakeMetricsWindow();
    result.windows.push_back(HaloWindowSample{t, w.remote_fraction(), w.migrations});
    result.remote_fraction += w.remote_fraction();
  }
  engine.RunUntil(measure_start + config.measure);

  const double busy1 = snapshot_busy();
  const double window_ns = static_cast<double>(engine.now() - measure_start);
  const double cores = static_cast<double>(config.num_servers) *
                       static_cast<double>(cluster.server(0).cpu().cores());
  result.cpu_utilization = (busy1 - busy0) / (cores * window_ns);
  result.remote_fraction /=
      static_cast<double>(config.measure / config.window);
  result.migrations = cluster.total_migrations() - migrations0;
  result.client_latency = halo.clients().latency();
  result.actor_call_latency = cluster.MergedActorCallLatency();
  result.remote_call_latency = cluster.MergedRemoteActorCallLatency();
  result.completed = halo.clients().completed();
  result.timeouts = halo.clients().timeouts();
  for (int s = 0; s < cluster.num_servers(); s++) {
    std::vector<int> alloc;
    for (int i = 0; i < Server::kNumStages; i++) {
      alloc.push_back(cluster.server(s).stage(i).threads());
      result.stage_rejections += cluster.server(s).stage(i).total_rejections();
    }
    result.thread_allocations.push_back(std::move(alloc));
  }
  return result;
}

std::string LatencySummary(const Histogram& h) {
  return FormatMillis(h.p50()) + " / " + FormatMillis(h.p95()) + " / " + FormatMillis(h.p99());
}

double ImprovementPercent(double baseline, double optimized) {
  if (baseline <= 0.0) {
    return 0.0;
  }
  return 100.0 * (1.0 - optimized / baseline);
}

}  // namespace actop
