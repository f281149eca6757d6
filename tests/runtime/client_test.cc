#include "src/runtime/client.h"

#include <gtest/gtest.h>

#include "src/common/sim_time.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "tests/runtime/test_actors.h"

namespace actop {
namespace {

TEST(ClientPoolTest, GeneratesApproximatePoissonRate) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2});
  RegisterTestActors(&cluster);
  ClientPool clients(&cluster, ClientConfig{.request_rate = 2000.0},
                     [](Rng& rng, ActorId* target, MethodId* method) {
                       *target = MakeActorId(kEchoType, rng.NextBounded(100) + 1);
                       *method = 1;
                       return true;
                     });
  clients.Start();
  sim.RunUntil(Seconds(5));
  clients.Stop();
  EXPECT_NEAR(static_cast<double>(clients.issued()), 10000.0, 500.0);
}

TEST(ClientPoolTest, MeasuresEndToEndLatency) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2});
  RegisterTestActors(&cluster);
  ClientPool clients(&cluster, ClientConfig{.request_rate = 500.0},
                     [](Rng& rng, ActorId* target, MethodId* method) {
                       *target = MakeActorId(kEchoType, rng.NextBounded(50) + 1);
                       *method = 1;
                       return true;
                     });
  clients.Start();
  sim.RunUntil(Seconds(4));
  clients.Stop();
  sim.RunUntil(sim.now() + Seconds(1));
  EXPECT_GT(clients.completed(), clients.issued() * 95 / 100);
  // Latency at minimum: 2 network hops (500 µs) + deser + turn + ser.
  EXPECT_GT(clients.latency().p50(), Micros(500));
  EXPECT_LT(clients.latency().p50(), Millis(50));
  EXPECT_EQ(clients.timeouts(), 0u);
}

TEST(ClientPoolTest, SkippedTargetsDoNotIssue) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2});
  RegisterTestActors(&cluster);
  ClientPool clients(&cluster, ClientConfig{.request_rate = 1000.0},
                     [](Rng&, ActorId*, MethodId*) { return false; });
  clients.Start();
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(clients.issued(), 0u);
}

TEST(ClientPoolTest, ResetStatsClearsCounters) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2});
  RegisterTestActors(&cluster);
  ClientPool clients(&cluster, ClientConfig{.request_rate = 500.0},
                     [](Rng&, ActorId* target, MethodId* method) {
                       *target = MakeActorId(kEchoType, 1);
                       *method = 1;
                       return true;
                     });
  clients.Start();
  sim.RunUntil(Seconds(2));
  clients.ResetStats();
  EXPECT_EQ(clients.latency().count(), 0u);
  EXPECT_EQ(clients.issued(), 0u);
  sim.RunUntil(Seconds(4));
  EXPECT_GT(clients.issued(), 0u);
}

TEST(ClientPoolTest, TimeoutsOnUnresponsiveCluster) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  // Make the cluster unable to respond in time: tiny queues with huge load.
  cfg.server.stage_queue_capacity = 4;
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, cfg);
  RegisterTestActors(&cluster);
  ClientPool clients(&cluster,
                     ClientConfig{.request_rate = 50000.0, .timeout = Seconds(2)},
                     [](Rng& rng, ActorId* target, MethodId* method) {
                       *target = MakeActorId(kEchoType, rng.NextBounded(10) + 1);
                       *method = 1;
                       return true;
                     });
  clients.Start();
  sim.RunUntil(Seconds(5));
  clients.Stop();
  sim.RunUntil(sim.now() + Seconds(5));
  EXPECT_GT(clients.timeouts(), 0u);
}

TEST(DirectClientTest, CallbackReceivesResponse) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2});
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 3);
  int got = 0;
  client.Call(MakeActorId(kEchoType, 1), 1, 100, [&](const Response& r) {
    EXPECT_FALSE(r.failed);
    got++;
  });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace actop
