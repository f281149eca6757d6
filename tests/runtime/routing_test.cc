// Routing edge cases: stale-cache forwarding with hop limits, bounded-queue
// rejection, parked-call retry after lost directory answers, and the
// one-way-call path.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/runtime/envelope_pool.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "tests/runtime/test_actors.h"

namespace actop {
namespace {

TEST(RoutingTest, StaleCacheChainStillDelivers) {
  // Prime stale caches on several servers, then call: the message must reach
  // the real host within the hop limit (falling back to the directory).
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 4, .seed = 3});
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId echo = MakeActorId(kEchoType, 1);
  client.Call(echo, 1, 100);
  sim.RunUntil(Seconds(1));
  const ServerId host = HostOf(cluster, echo);
  ASSERT_NE(host, kNoServer);

  // Poison every other server's cache with a wrong location that points at
  // yet another wrong server (chain of staleness).
  for (int s = 0; s < 4; s++) {
    if (s != host) {
      cluster.server(s).location_cache().Put(echo, static_cast<ServerId>((s + 1) % 4));
    }
  }
  int responses = 0;
  client.Call(echo, 1, 100, [&](const Response& r) {
    EXPECT_FALSE(r.failed);
    responses++;
  });
  sim.RunUntil(sim.now() + Seconds(3));
  EXPECT_EQ(responses, 1);
  // Exactly one live activation remains.
  int hosts = 0;
  for (int s = 0; s < 4; s++) {
    hosts += cluster.server(s).IsActive(echo) ? 1 : 0;
  }
  EXPECT_EQ(hosts, 1);
}

TEST(RoutingTest, OneWayCallsDeliverWithoutResponses) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2, .seed = 5});
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId echo = MakeActorId(kEchoType, 9);
  for (int i = 0; i < 10; i++) {
    client.Call(echo, 1, 100);  // null continuation: one-way
  }
  sim.RunUntil(Seconds(2));
  auto* actor = static_cast<EchoActor*>(cluster.GetOrCreateActor(echo));
  EXPECT_EQ(actor->calls(), 10);
}

TEST(RoutingTest, BoundedReceiveQueueShedsLoadButRecovers) {
  ClusterConfig cfg{.num_servers = 1, .seed = 7};
  cfg.server.stage_queue_capacity = 64;
  cfg.server.call_timeout = Seconds(2);
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, cfg);
  RegisterTestActors(&cluster);

  ClientPool clients(&cluster,
                     ClientConfig{.request_rate = 60000.0, .timeout = Seconds(3)},
                     [](Rng& rng, ActorId* target, MethodId* method) {
                       *target = MakeActorId(kEchoType, rng.NextBounded(10) + 1);
                       *method = 1;
                       return true;
                     });
  clients.Start();
  sim.RunUntil(Seconds(3));
  clients.Stop();
  sim.RunUntil(sim.now() + Seconds(5));
  // Overload sheds requests...
  EXPECT_GT(cluster.server(0).stage(Server::kReceive).total_rejections(), 0u);
  EXPECT_GT(clients.timeouts(), 0u);
  // ...but the server stays live afterwards.
  DirectClient probe(&cluster, 9);
  int ok = 0;
  probe.Call(MakeActorId(kEchoType, 1), 1, 100, [&](const Response& r) {
    ok += r.failed ? 0 : 1;
  });
  sim.RunUntil(sim.now() + Seconds(2));
  EXPECT_EQ(ok, 1);
}

TEST(RoutingTest, ControlLossRecoversViaParkedCallRetry) {
  // Crash an actor's home-directory server while a lookup is in flight: the
  // parked call must be retried by the sweeper and eventually delivered.
  ClusterConfig cfg{.num_servers = 4, .seed = 11};
  cfg.server.call_timeout = Seconds(3);  // retry period = timeout / 3
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, cfg);
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId echo = MakeActorId(kEchoType, 4);
  const ServerId home = DirectoryHomeOf(echo, 4);
  int responses = 0;
  client.Call(echo, 1, 100, [&](const Response& r) {
    if (!r.failed) {
      responses++;
    }
  });
  // Crash the home while the lookup may be in flight; the "replacement"
  // server answers retried lookups.
  sim.RunUntil(Micros(300));
  cluster.CrashServer(home);
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(responses, 1);
}

TEST(RoutingTest, SweepRetriesLostLookupsInParkOrder) {
  // Calls for six actors homed on server 1 park at server 0 in an order that
  // is neither their id order nor anything a hash layout would produce, and
  // every first lookup is lost. The sweep must re-send the lookups in park
  // order; the home shard mints registration tokens in arrival order, so
  // the tokens show the order.
  ClusterConfig cfg{.num_servers = 2, .seed = 3};
  cfg.server.call_timeout = Seconds(3);  // a lookup is retried once 1 s old
  cfg.server.exponential_costs = false;   // equal costs keep the sends in order
  cfg.server.gc_mean_interval = 0;
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, cfg);
  RegisterTestActors(&cluster);

  std::vector<ActorId> homed;
  for (uint64_t k = 1; homed.size() < 6; k++) {
    const ActorId actor = MakeActorId(kEchoType, k);
    if (DirectoryHomeOf(actor, 2) == 1) {
      homed.push_back(actor);
    }
  }
  const std::vector<ActorId> park_order = {homed[3], homed[0], homed[5],
                                           homed[1], homed[4], homed[2]};

  // Every control message from server 0 to server 1 in the first 100 ms is
  // a first lookup: drop them all.
  const NodeId gateway = cluster.NodeOfServer(0);
  const NodeId home = cluster.NodeOfServer(1);
  int dropped = 0;
  cluster.network().set_fault_injector(
      [&](NodeId from, NodeId to, uint32_t bytes, int, SimTime now) {
        FaultDecision fate;
        fate.drop = from == gateway && to == home && bytes == Server::kControlBytes &&
                    now < Millis(100);
        dropped += fate.drop ? 1 : 0;
        return fate;
      });

  int responses = 0;
  const NodeId client =
      cluster.AddClientNode([&](NodeId, uint32_t, EnvelopePtr) { responses++; });
  for (size_t i = 0; i < park_order.size(); i++) {
    EnvelopePtr env = MakeEnvelope();
    env->kind = MessageKind::kCall;
    env->call_id = CallId{client, i + 1};
    env->target = park_order[i];
    env->method = 1;
    env->payload_bytes = 100;
    env->reply_to = client;
    cluster.network().Send(client, gateway, 100, std::move(env));
    sim.RunUntil(sim.now() + Millis(5));
  }
  sim.RunUntil(Seconds(1) + Millis(500));
  EXPECT_EQ(dropped, 6);
  EXPECT_EQ(cluster.server(1).directory_shard().size(), 0u);

  sim.RunUntil(Seconds(3));
  std::vector<std::pair<uint64_t, ActorId>> by_token;
  cluster.server(1).directory_shard().ForEach(
      [&](ActorId actor, const DirEntry& entry) { by_token.emplace_back(entry.token, actor); });
  std::sort(by_token.begin(), by_token.end());
  std::vector<ActorId> retry_order;
  for (const auto& [token, actor] : by_token) {
    retry_order.push_back(actor);
  }
  EXPECT_EQ(retry_order, park_order);
  EXPECT_EQ(responses, 6);
}

TEST(RoutingTest, ActiveActorsListsEveryActivation) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2, .seed = 13});
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);
  for (uint64_t k = 1; k <= 20; k++) {
    client.Call(MakeActorId(kEchoType, k), 1, 100);
  }
  sim.RunUntil(Seconds(2));
  size_t listed = 0;
  for (int s = 0; s < 2; s++) {
    const auto actors = cluster.server(s).ActiveActors();
    listed += actors.size();
    for (const ActorId a : actors) {
      EXPECT_TRUE(cluster.server(s).IsActive(a));
    }
  }
  EXPECT_EQ(listed, 20u);
}

}  // namespace
}  // namespace actop
