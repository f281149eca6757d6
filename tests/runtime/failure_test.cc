// Failure injection and consistency-under-churn tests.
//
// The virtual-actor promises under test: after any combination of crashes
// and migrations, (a) at most one activation of an actor exists, (b) the
// next call re-activates it with its state intact, (c) in-flight calls fail
// via timeouts instead of hanging, and (d) random concurrent migrations
// never lose or duplicate replies.

#include <gtest/gtest.h>

#include "src/common/sim_time.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "tests/runtime/test_actors.h"

namespace actop {
namespace {

TEST(FailureTest, CrashOfDirectoryHomeStillAllowsActivation) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 4, .seed = 3});
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  // Find an actor whose directory home we can crash before first activation.
  const ActorId echo = MakeActorId(kEchoType, 12);
  const ServerId home = DirectoryHomeOf(echo, 4);
  cluster.CrashServer(home);  // crash first: directory shard state is empty anyway

  int responses = 0;
  client.Call(echo, 1, 100, [&](const Response&) { responses++; });
  sim.RunUntil(Seconds(2));
  // The home shard (instantly "replaced" server) still serves lookups.
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(CountHosts(cluster, echo), 1);
}

TEST(FailureTest, RepeatedCrashesNeverDuplicateActivations) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  ClusterConfig cfg{.num_servers = 4, .seed = 7};
  cfg.server.call_timeout = Seconds(2);
  Cluster cluster(&engine, cfg);
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  for (uint64_t k = 1; k <= 40; k++) {
    client.Call(MakeActorId(kEchoType, k), 1, 100);
  }
  sim.RunUntil(Seconds(2));

  Rng rng(11);
  for (int round = 0; round < 6; round++) {
    cluster.CrashServer(static_cast<ServerId>(rng.NextBounded(4)));
    // Fresh calls re-activate a random subset.
    for (int i = 0; i < 20; i++) {
      client.Call(MakeActorId(kEchoType, rng.NextBounded(40) + 1), 1, 100);
    }
    sim.RunUntil(sim.now() + Seconds(3));
    for (uint64_t k = 1; k <= 40; k++) {
      EXPECT_LE(CountHosts(cluster, MakeActorId(kEchoType, k)), 1) << "actor " << k;
    }
  }
}

TEST(FailureTest, StateSurvivesCrash) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 3, .seed = 9});
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId echo = MakeActorId(kEchoType, 1);
  for (int i = 0; i < 5; i++) {
    client.Call(echo, 1, 100);
  }
  sim.RunUntil(Seconds(2));
  for (int s = 0; s < 3; s++) {
    cluster.CrashServer(static_cast<ServerId>(s));
  }
  int responses = 0;
  client.Call(echo, 1, 100, [&](const Response&) { responses++; });
  sim.RunUntil(sim.now() + Seconds(2));
  EXPECT_EQ(responses, 1);
  // Counter kept its history across the crash (state store == storage).
  auto* actor = static_cast<EchoActor*>(cluster.GetOrCreateActor(echo));
  EXPECT_EQ(actor->calls(), 6);
}

TEST(FailureTest, ClientTimeoutsBoundedUnderCrashStorm) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  ClusterConfig cfg{.num_servers = 4, .seed = 13};
  cfg.server.call_timeout = Seconds(2);
  Cluster cluster(&engine, cfg);
  RegisterTestActors(&cluster);
  ClientPool clients(&cluster, ClientConfig{.request_rate = 500.0, .timeout = Seconds(3)},
                     [](Rng& rng, ActorId* target, MethodId* method) {
                       *target = MakeActorId(kEchoType, rng.NextBounded(100) + 1);
                       *method = 1;
                       return true;
                     });
  clients.Start();
  sim.RunUntil(Seconds(5));
  cluster.CrashServer(0);
  sim.RunUntil(Seconds(10));
  cluster.CrashServer(2);
  sim.RunUntil(Seconds(30));
  clients.Stop();
  sim.RunUntil(sim.now() + Seconds(5));
  // Requests in flight during the crashes are lost (bounded), everything
  // else completes: the system recovers rather than wedging.
  EXPECT_GT(clients.completed(), clients.issued() * 90 / 100);
  EXPECT_LT(clients.timeouts(), clients.issued() / 20);
}

// Property: random migrations racing with continuous traffic never lose a
// reply, never duplicate an activation, and keep actor state consistent.
class MigrationChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MigrationChurnTest, NoLossUnderRandomMigrations) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 4, .seed = GetParam()});
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, GetParam() ^ 0xabc);

  constexpr int kActors = 30;
  int responses = 0;
  int issued = 0;
  Rng rng(GetParam());

  // Traffic: every 5 ms each actor gets a call; migration chaos: every 20 ms
  // a random active actor is pushed to a random server.
  sim.SchedulePeriodic(Millis(5), [&] {
    if (sim.now() > Seconds(10)) {
      return;
    }
    const ActorId target = MakeActorId(kEchoType, rng.NextBounded(kActors) + 1);
    issued++;
    client.Call(target, 1, 100, [&](const Response& r) {
      if (!r.failed) {
        responses++;
      }
    });
  });
  sim.SchedulePeriodic(Millis(20), [&] {
    if (sim.now() > Seconds(10)) {
      return;
    }
    const ActorId target = MakeActorId(kEchoType, rng.NextBounded(kActors) + 1);
    for (int s = 0; s < cluster.num_servers(); s++) {
      if (cluster.server(s).IsActive(target)) {
        cluster.server(s).MigrateActor(
            target, static_cast<ServerId>(rng.NextBounded(4)));
        break;
      }
    }
  });

  sim.RunUntil(Seconds(25));
  EXPECT_EQ(responses, issued);
  uint64_t handled = 0;
  for (uint64_t k = 1; k <= kActors; k++) {
    const ActorId id = MakeActorId(kEchoType, k);
    EXPECT_LE(CountHosts(cluster, id), 1);
    if (cluster.HasActorState(id)) {
      handled += static_cast<uint64_t>(
          static_cast<EchoActor*>(cluster.GetOrCreateActor(id))->calls());
    }
  }
  EXPECT_EQ(handled, static_cast<uint64_t>(issued));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationChurnTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace actop
