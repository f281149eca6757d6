#include "perfbench/src/probe.h"

#include <algorithm>

namespace perfbench {

Counters Snapshot(Instance& instance) {
  Counters c;
  actop::ShardedEngine& engine = instance.engine();
  actop::Cluster& cluster = instance.cluster();
  c.sim_now = engine.now();

  for (int k = 0; k < engine.shards(); k++) {
    const actop::Simulation& shard = engine.shard(k);
    c.shard_events.push_back(shard.events_executed());
    c.events += shard.events_executed();
    c.pending += shard.pending_events();
  }

  const actop::Network& net = cluster.network();
  c.net_msgs = net.total_messages();
  c.net_bytes = net.total_bytes();
  c.net_dropped = net.dropped_messages();

  for (int s = 0; s < cluster.num_servers(); s++) {
    actop::Server& server = cluster.server(s);
    for (int i = 0; i < kStages; i++) {
      const actop::Stage& stage = server.stage(i);
      StageCounters& sc = c.stages[static_cast<size_t>(i)];
      sc.completions += stage.total_completions();
      sc.rejections += stage.total_rejections();
      sc.window_completions += stage.current_window().completions;
      sc.window_queue_wait_ns += stage.current_window().sum_queue_wait;
      sc.queue_len_max = std::max<uint64_t>(sc.queue_len_max, stage.queue_length());
      sc.threads += stage.threads();
    }
    c.cpu_busy_ns += server.cpu().busy_core_nanos();
    c.cores_total += server.cpu().cores();
    c.threads_total += server.cpu().total_threads();

    c.remote_app_msgs += server.remote_app_messages();
    c.local_app_msgs += server.local_app_messages();
    c.activations_started += server.activations_started();
    c.live_activations += server.num_activations();

    if (const actop::PartitionAgent* agent = cluster.partition_agent(s)) {
      c.partition_rounds += agent->rounds_initiated();
      c.exchanges_accepted += agent->exchanges_accepted();
      c.exchanges_rejected += agent->exchanges_rejected();
    }

    c.cache_hits += server.location_cache().hits();
    c.cache_misses += server.location_cache().misses();
    c.directory_entries += server.directory_shard().size();
  }
  c.migrations = cluster.total_migrations();

  actop::ClientPool& pool = instance.pool();
  c.issued = pool.issued();
  c.completed = pool.completed();
  c.timeouts = pool.timeouts();
  c.outstanding = pool.outstanding();

  c.churned = instance.churned();
  c.arrivals = instance.driver().arrivals();
  c.burst_arrivals = instance.driver().burst_arrivals();
  c.games_started = instance.games_started();
  c.heap = ReadAllocCounts();
  return c;
}

}  // namespace perfbench
