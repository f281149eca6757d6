#include <gtest/gtest.h>

#include "src/common/sim_time.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "src/workload/chat.h"
#include "src/workload/counter.h"
#include "src/workload/halo_presence.h"
#include "src/workload/heartbeat.h"
#include "src/workload/social.h"

namespace actop {
namespace {

TEST(CounterWorkloadTest, EveryResponseIncrementsExactlyOnce) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 1});
  CounterWorkloadConfig cfg;
  cfg.num_actors = 100;
  cfg.request_rate = 2000.0;
  CounterWorkload workload(&cluster, cfg);
  workload.Start();
  sim.RunUntil(Seconds(5));
  workload.Stop();
  sim.RunUntil(sim.now() + Seconds(2));
  EXPECT_GT(workload.clients().completed(), 9000u);
  EXPECT_EQ(workload.TotalCount(), workload.clients().completed());
}

TEST(CounterWorkloadTest, LatencyReasonableUnderLightLoad) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 1});
  CounterWorkloadConfig cfg;
  cfg.num_actors = 100;
  cfg.request_rate = 1000.0;
  CounterWorkload workload(&cluster, cfg);
  workload.Start();
  sim.RunUntil(Seconds(5));
  EXPECT_LT(workload.clients().latency().p50(), Millis(5));
}

TEST(HeartbeatWorkloadTest, SustainsLoadOnOneServer) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 1});
  HeartbeatWorkloadConfig cfg;
  cfg.num_monitors = 500;
  cfg.request_rate = 5000.0;
  HeartbeatWorkload workload(&cluster, cfg);
  workload.Start();
  sim.RunUntil(Seconds(5));
  workload.Stop();
  sim.RunUntil(sim.now() + Seconds(2));
  EXPECT_GT(workload.clients().completed(), 23000u);
  EXPECT_EQ(workload.clients().timeouts(), 0u);
}

TEST(HaloWorkloadTest, PopulationAndGamesReachSteadyState) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 4});
  HaloWorkloadConfig cfg;
  cfg.target_players = 800;
  cfg.idle_pool_target = 8;
  cfg.request_rate = 200.0;
  cfg.time_scale = 0.01;  // games last 12–18 s
  HaloWorkload workload(&cluster, cfg);
  workload.Start();
  // A player's lifetime is 3-5 games of 12-18 s each plus idle gaps; run
  // long enough for departures and replacements to happen.
  sim.RunUntil(Seconds(90));

  EXPECT_EQ(workload.concurrent_players(), 800);
  // ~(800-8)/8 games concurrently.
  EXPECT_GT(workload.active_games(), 80);
  EXPECT_LE(workload.active_games(), 100);
  // Churn: games have ended and players departed + been replaced.
  EXPECT_GT(workload.games_started(), static_cast<uint64_t>(workload.active_games()));
  EXPECT_GT(workload.players_departed(), 0u);
}

TEST(HaloWorkloadTest, BroadcastPatternGeneratesEighteenMessages) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 4});
  HaloWorkloadConfig cfg;
  cfg.target_players = 160;
  cfg.idle_pool_target = 0;
  cfg.request_rate = 100.0;
  cfg.time_scale = 1.0;  // very long games: membership stays static while measuring
  HaloWorkload workload(&cluster, cfg);
  workload.Start();
  sim.RunUntil(Seconds(10));  // warm-up: joins, activations

  const auto before = cluster.TakeMetricsWindow();
  (void)before;
  const uint64_t broadcasts_before = workload.state().broadcasts;
  const uint64_t completed_before = workload.clients().completed();
  sim.RunUntil(Seconds(40));
  const auto window = cluster.TakeMetricsWindow();
  const uint64_t broadcasts = workload.state().broadcasts - broadcasts_before;
  const uint64_t requests = workload.clients().completed() - completed_before;

  ASSERT_GT(requests, 500u);
  // Every status request triggers exactly one full broadcast.
  EXPECT_NEAR(static_cast<double>(broadcasts), static_cast<double>(requests),
              static_cast<double>(requests) * 0.05);
  // 18 actor messages per request: player->game, game->8, 8 replies, game
  // reply == 1+8+8+1 = 18 app-message legs.
  const double msgs_per_request =
      static_cast<double>(window.remote_msgs + window.local_msgs) /
      static_cast<double>(requests);
  EXPECT_NEAR(msgs_per_request, 18.0, 1.5);
}

TEST(HaloWorkloadTest, RemoteFractionHighUnderRandomPlacement) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 8});
  HaloWorkloadConfig cfg;
  cfg.target_players = 800;
  cfg.idle_pool_target = 8;
  cfg.request_rate = 300.0;
  HaloWorkload workload(&cluster, cfg);
  workload.Start();
  sim.RunUntil(Seconds(20));
  // The paper observes ~90% remote on 10 servers; on 8 servers expect 7/8.
  EXPECT_GT(cluster.RemoteMessageFraction(), 0.75);
}

TEST(ChatWorkloadTest, MessagesFanOutToRoomMembers) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2});
  ChatWorkloadConfig cfg;
  cfg.num_users = 200;
  cfg.num_rooms = 10;
  cfg.message_rate = 200.0;
  cfg.rehomes_per_period = 0;
  ChatWorkload chat(&cluster, cfg);
  chat.Start();
  sim.RunUntil(Seconds(10));
  EXPECT_GT(chat.state().messages_posted, 1000u);
  // ~20 members per room; each post notifies members-1 others.
  const double fanout = static_cast<double>(chat.state().notifications) /
                        static_cast<double>(chat.state().messages_posted);
  EXPECT_GT(fanout, 10.0);
  EXPECT_LT(fanout, 25.0);
}

TEST(ChatWorkloadTest, RehomingChangesRooms) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2});
  ChatWorkloadConfig cfg;
  cfg.num_users = 100;
  cfg.num_rooms = 10;
  cfg.message_rate = 50.0;
  cfg.rehome_period = Seconds(1);
  cfg.rehomes_per_period = 10;
  ChatWorkload chat(&cluster, cfg);
  chat.Start();
  sim.RunUntil(Seconds(10));
  // Rehoming generates join/leave traffic; system stays live.
  EXPECT_GT(chat.state().messages_posted, 100u);
}

TEST(SocialWorkloadTest, FanOutMatchesFollowerCounts) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2});
  SocialWorkloadConfig cfg;
  cfg.num_users = 300;
  cfg.mean_following = 8;
  cfg.post_rate = 100.0;
  cfg.read_rate = 0.001;  // effectively posts only
  cfg.follows_per_period = 0;
  SocialWorkload social(&cluster, cfg);
  social.Start();
  sim.RunUntil(Seconds(12));
  ASSERT_GT(social.state().posts, 500u);
  // Mean deliveries per post == mean followers per user ~= mean_following
  // (minus self-follow skips).
  const double fanout = static_cast<double>(social.state().deliveries) /
                        static_cast<double>(social.state().posts);
  EXPECT_GT(fanout, 5.0);
  EXPECT_LT(fanout, 10.0);
}

TEST(SocialWorkloadTest, InDegreeIsSkewed) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2});
  SocialWorkloadConfig cfg;
  cfg.num_users = 1000;
  cfg.mean_following = 10;
  cfg.zipf_skew = 0.8;
  SocialWorkload social(&cluster, cfg);
  social.Start();
  sim.RunUntil(Seconds(1));
  // The most popular user has far more followers than the median user.
  int max_followers = 0;
  std::vector<int> counts;
  for (uint64_t u = 1; u <= 1000; u++) {
    counts.push_back(social.FollowerCount(u));
    max_followers = std::max(max_followers, social.FollowerCount(u));
  }
  std::nth_element(counts.begin(), counts.begin() + 500, counts.end());
  const int median = counts[500];
  EXPECT_GT(max_followers, std::max(1, median) * 10);
}

TEST(SocialWorkloadTest, PartitioningReducesRemoteTrafficDespiteCelebrities) {
  auto remote_fraction = [](bool partitioning) {
    ShardedEngine engine{{}};
    Simulation& sim = engine.sim();
    ClusterConfig cfg;
    cfg.num_servers = 4;
    cfg.seed = 17;
    cfg.enable_partitioning = partitioning;
    cfg.partition.exchange_period = Seconds(1);
    cfg.partition.exchange_min_gap = Seconds(1);
    cfg.partition.pairwise.candidate_set_size = 256;
    Cluster cluster(&engine, cfg);
    SocialWorkloadConfig wcfg;
    wcfg.num_users = 600;
    wcfg.mean_following = 8;
    wcfg.post_rate = 150.0;
    wcfg.read_rate = 300.0;
    SocialWorkload social(&cluster, wcfg);
    social.Start();
    cluster.StartOptimizers();
    sim.RunUntil(Seconds(25));
    cluster.TakeMetricsWindow();
    sim.RunUntil(Seconds(40));
    return cluster.TakeMetricsWindow().remote_fraction();
  };
  const double base = remote_fraction(false);
  const double opt = remote_fraction(true);
  EXPECT_GT(base, 0.5);
  // A heavy-tailed graph cannot be fully localized (a celebrity's followers
  // span all servers), but partitioning must still cut remote traffic.
  EXPECT_LT(opt, base * 0.8);
}

}  // namespace
}  // namespace actop
