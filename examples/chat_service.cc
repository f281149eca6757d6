// Chat service with ActOp optimizations — the paper's motivating scenario.
//
// Users and chat rooms are actors; users post messages that their room fans
// out to all members. The example runs the same service twice — with
// Orleans-style random placement and with ActOp's partitioning enabled — and
// prints how the remote-message fraction, latency, and CPU change once the
// runtime migrates each room next to its members.

#include <cstdio>

#include "src/common/sim_time.h"
#include "src/common/table.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/workload/chat.h"

namespace {

struct RunStats {
  double remote_fraction;
  double median_ms;
  double p99_ms;
  double cpu;
  uint64_t migrations;
};

RunStats RunChat(bool actop_enabled) {
  actop::ShardedEngine engine{{}};
  actop::ClusterConfig config;
  config.num_servers = 4;
  config.seed = 2024;
  config.enable_partitioning = actop_enabled;
  config.partition.exchange_period = actop::Seconds(2);
  config.partition.exchange_min_gap = actop::Seconds(2);
  actop::Cluster cluster(&engine, config);

  actop::ChatWorkloadConfig chat_config;
  chat_config.num_users = 1000;
  chat_config.num_rooms = 50;
  chat_config.message_rate = 600.0;
  chat_config.rehome_period = actop::Seconds(2);
  chat_config.rehomes_per_period = 5;  // users drift between rooms
  actop::ChatWorkload chat(&cluster, chat_config);
  chat.Start();
  cluster.StartOptimizers();

  // Warm up (placement, convergence), then measure a steady window.
  engine.RunUntil(actop::Seconds(30));
  chat.clients().ResetStats();
  cluster.TakeMetricsWindow();
  double busy0 = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    busy0 += cluster.server(s).cpu().busy_core_nanos();
  }
  const actop::SimTime t0 = engine.now();
  engine.RunUntil(t0 + actop::Seconds(30));
  double busy1 = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    busy1 += cluster.server(s).cpu().busy_core_nanos();
  }

  const auto window = cluster.TakeMetricsWindow();
  RunStats stats;
  stats.remote_fraction = window.remote_fraction();
  stats.median_ms = actop::ToMillis(chat.clients().latency().p50());
  stats.p99_ms = actop::ToMillis(chat.clients().latency().p99());
  stats.cpu = (busy1 - busy0) / (4.0 * 8.0 * static_cast<double>(engine.now() - t0));
  stats.migrations = cluster.total_migrations();
  return stats;
}

}  // namespace

int main() {
  std::printf("Chat service: 1000 users, 50 rooms, 600 posts/sec on 4 servers\n");
  std::printf("(users drift between rooms, so the communication graph keeps changing)\n\n");

  const RunStats random_placement = RunChat(false);
  const RunStats actop = RunChat(true);

  actop::Table t({"placement", "remote msgs", "post median", "post p99", "CPU", "migrations"});
  t.AddRow({"random (baseline)", actop::FormatPercent(random_placement.remote_fraction),
            actop::FormatDouble(random_placement.median_ms, 2) + " ms",
            actop::FormatDouble(random_placement.p99_ms, 2) + " ms",
            actop::FormatPercent(random_placement.cpu),
            std::to_string(random_placement.migrations)});
  t.AddRow({"ActOp partitioning", actop::FormatPercent(actop.remote_fraction),
            actop::FormatDouble(actop.median_ms, 2) + " ms",
            actop::FormatDouble(actop.p99_ms, 2) + " ms", actop::FormatPercent(actop.cpu),
            std::to_string(actop.migrations)});
  t.Print();

  std::printf("\nActOp migrated each room next to its members and keeps adapting as users "
              "move — no application changes required.\n");
  return 0;
}
