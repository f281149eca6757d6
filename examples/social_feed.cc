// Social feed service — heavy-tailed follower graphs under ActOp.
//
// Users post to their followers (write fan-out); the follower graph is
// community-structured with Zipf-skewed popularity, so a few celebrities
// have audiences far larger than any single server can absorb. The example
// shows what the partitioner can and cannot do on such graphs: community
// traffic localizes, celebrity fan-out stays partly remote, and the balance
// constraint keeps the celebrity's server from hoarding actors.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/table.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/workload/social.h"

int main() {
  actop::ShardedEngine engine{{}};
  actop::ClusterConfig config;
  config.num_servers = 4;
  config.seed = 5;
  config.enable_partitioning = true;
  config.partition.exchange_period = actop::Seconds(1);
  config.partition.exchange_min_gap = actop::Seconds(1);
  config.partition.pairwise.candidate_set_size = 256;
  actop::Cluster cluster(&engine, config);

  actop::SocialWorkloadConfig workload_config;
  workload_config.num_users = 2000;
  workload_config.mean_following = 10;
  workload_config.communities = 40;
  workload_config.community_bias = 0.8;
  workload_config.post_rate = 250.0;
  workload_config.read_rate = 750.0;
  actop::SocialWorkload social(&cluster, workload_config);
  social.Start();
  cluster.StartOptimizers();

  std::printf("Social feed: 2000 users, 40 communities, Zipf-skewed popularity, 4 servers\n\n");

  actop::Table t({"t(s)", "remote msgs", "posts", "deliveries", "read median (ms)"});
  for (int ts = 10; ts <= 60; ts += 10) {
    social.clients().ResetStats();
    engine.RunUntil(actop::Seconds(ts));
    const auto window = cluster.TakeMetricsWindow();
    t.AddRow({std::to_string(ts), actop::FormatPercent(window.remote_fraction()),
              std::to_string(social.state().posts), std::to_string(social.state().deliveries),
              actop::FormatMillis(social.clients().latency().p50())});
  }
  t.Print();

  // Who are the celebrities, and how balanced did the cluster stay?
  std::vector<int> followers;
  for (uint64_t u = 1; u <= 2000; u++) {
    followers.push_back(social.FollowerCount(u));
  }
  std::sort(followers.rbegin(), followers.rend());
  std::printf("\ntop follower counts: %d, %d, %d (median %d)\n", followers[0], followers[1],
              followers[2], followers[1000]);
  std::printf("activations per server:");
  for (int s = 0; s < cluster.num_servers(); s++) {
    std::printf(" %lld", static_cast<long long>(cluster.server(s).num_activations()));
  }
  std::printf("\nmigrations: %llu — communities localized; celebrity fan-out is the "
              "irreducible remote floor\n",
              static_cast<unsigned long long>(cluster.total_migrations()));
  return 0;
}
