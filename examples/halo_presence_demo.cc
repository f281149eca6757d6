// Halo Presence demo: watch ActOp converge live.
//
// Runs the paper's flagship workload (games + players, matchmaking churn,
// broadcast status requests) with both ActOp optimizations enabled and
// prints a dashboard line every simulated 5 seconds: remote-message
// fraction, migrations, client latency and CPU. The first ~30 seconds show
// the partitioner learning the communication graph and draining the
// migration backlog; after that it just tracks matchmaking churn.

#include <cstdio>

#include "src/common/sim_time.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/workload/halo_presence.h"

int main() {
  actop::ShardedEngine engine{{}};
  actop::ClusterConfig config;
  config.num_servers = 8;
  config.seed = 7;
  config.enable_partitioning = true;
  config.partition.exchange_period = actop::Seconds(1);
  config.partition.exchange_min_gap = actop::Seconds(1);
  config.partition.max_peers_per_round = 4;
  config.partition.pairwise.candidate_set_size = 256;
  config.partition.pairwise.balance_delta = 200;
  config.partition.edge_decay_period = actop::Seconds(10);
  config.enable_thread_optimization = true;
  actop::Cluster cluster(&engine, config);

  actop::HaloWorkloadConfig workload_config;
  workload_config.target_players = 8000;
  workload_config.idle_pool_target = 80;
  workload_config.request_rate = 2500.0;
  actop::HaloWorkload halo(&cluster, workload_config);
  halo.Start();
  cluster.StartOptimizers();

  std::printf("Halo Presence: %d players, %0.f status requests/sec, 8 servers, ActOp on\n\n",
              workload_config.target_players, workload_config.request_rate);
  std::printf("%6s %8s %11s %10s %10s %8s %8s\n", "t(s)", "games", "remote msgs", "migr/5s",
              "med (ms)", "p99 (ms)", "CPU");

  double prev_busy = 0.0;
  actop::SimTime prev_t = 0;
  for (int t = 5; t <= 90; t += 5) {
    halo.clients().ResetStats();
    engine.RunUntil(actop::Seconds(t));
    const auto window = cluster.TakeMetricsWindow();
    double busy = 0.0;
    for (int s = 0; s < cluster.num_servers(); s++) {
      busy += cluster.server(s).cpu().busy_core_nanos();
    }
    const double cpu = (busy - prev_busy) /
                       (8.0 * 8.0 * static_cast<double>(engine.now() - prev_t));
    prev_busy = busy;
    prev_t = engine.now();
    std::printf("%6d %8lld %10.1f%% %10llu %10.2f %8.2f %7.1f%%\n", t,
                static_cast<long long>(halo.active_games()), window.remote_fraction() * 100.0,
                static_cast<unsigned long long>(window.migrations),
                actop::ToMillis(halo.clients().latency().p50()),
                actop::ToMillis(halo.clients().latency().p99()), cpu * 100.0);
  }

  std::printf("\nfinal thread allocations (receive/worker/server-sender/client-sender):\n");
  for (int s = 0; s < cluster.num_servers(); s++) {
    std::printf("  server %d: %d/%d/%d/%d\n", s, cluster.server(s).stage(0).threads(),
                cluster.server(s).stage(1).threads(), cluster.server(s).stage(2).threads(),
                cluster.server(s).stage(3).threads());
  }
  return 0;
}
