#include "src/runtime/server.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/sim_time.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "tests/runtime/test_actors.h"

namespace actop {
namespace {

ClusterConfig SmallCluster(int servers = 4, uint64_t seed = 1) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.seed = seed;
  return cfg;
}

TEST(RuntimeTest, ClientCallActivatesAndResponds) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId echo = MakeActorId(kEchoType, 1);
  int responses = 0;
  client.Call(echo, 1, 100, [&](const Response&) { responses++; });
  sim.RunUntil(Seconds(1));

  EXPECT_EQ(responses, 1);
  EXPECT_EQ(cluster.total_activations(), 1);
  auto* actor = static_cast<EchoActor*>(cluster.GetOrCreateActor(echo));
  EXPECT_EQ(actor->calls(), 1);
}

TEST(RuntimeTest, ActivationIsExactlyOnceUnderConcurrentCalls) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId echo = MakeActorId(kEchoType, 7);
  int responses = 0;
  for (int i = 0; i < 20; i++) {
    client.Call(echo, 1, 100, [&](const Response&) { responses++; });
  }
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(responses, 20);
  // Exactly one server hosts the actor despite 20 racing activations.
  int hosts = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    if (cluster.server(s).IsActive(echo)) {
      hosts++;
    }
  }
  EXPECT_EQ(hosts, 1);
  uint64_t total_started = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    total_started += cluster.server(s).activations_started();
  }
  EXPECT_EQ(total_started, 1u);
}

TEST(RuntimeTest, RandomPlacementSpreadsActors) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster(4));
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  for (uint64_t k = 1; k <= 200; k++) {
    client.Call(MakeActorId(kEchoType, k), 1, 100);
  }
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(cluster.total_activations(), 200);
  for (int s = 0; s < cluster.num_servers(); s++) {
    // Each server should hold a nontrivial share (exp 50, binomial).
    EXPECT_GT(cluster.server(s).num_activations(), 20);
    EXPECT_LT(cluster.server(s).num_activations(), 90);
  }
}

TEST(RuntimeTest, ActorToActorCallAcrossServers) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId relay = MakeActorId(kRelayType, 1);
  const ActorId echo = MakeActorId(kEchoType, 2);
  int responses = 0;
  client.Call(relay, 0, 100, [&](const Response&) { responses++; }, echo);
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(responses, 1);
  auto* echo_actor = static_cast<EchoActor*>(cluster.GetOrCreateActor(echo));
  EXPECT_EQ(echo_actor->calls(), 1);
  EXPECT_EQ(cluster.MergedActorCallLatency().count(), 1u);
}

TEST(RuntimeTest, DrainingParkedCallsMayParkFurtherCalls) {
  // Regression for the parked-call drain: delivering a parked call can
  // re-enter server routing and park *more* calls — including under keys
  // that are mid-drain elsewhere. The drain must move the entry list out
  // and erase the map entry before dispatching (iterating the live map
  // would be invalidated by the re-park). Two relays that call each other's
  // partner plus concurrent fan-in produce exactly that interleaving:
  // every call to an unresolved relay parks, each drained relay turn then
  // issues a sub-call to the *other* relay, which parks again on servers
  // that have not resolved it yet.
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId relay_a = MakeActorId(kRelayType, 11);
  const ActorId relay_b = MakeActorId(kRelayType, 12);
  int responses = 0;
  for (int i = 0; i < 10; i++) {
    // method 0 with app_data = partner: relay sub-calls the partner's
    // method 1 (immediate reply) before replying itself.
    client.Call(
        relay_a, 0, 100,
        [&](const Response& r) {
          EXPECT_FALSE(r.failed);
          responses++;
        },
        relay_b);
    client.Call(
        relay_b, 0, 100,
        [&](const Response& r) {
          EXPECT_FALSE(r.failed);
          responses++;
        },
        relay_a);
  }
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(responses, 20);
  // The racing activations still resolved to exactly one host per relay.
  EXPECT_EQ(CountHosts(cluster, relay_a), 1);
  EXPECT_EQ(CountHosts(cluster, relay_b), 1);

  // Second wave on fresh keys: exercises the recycled parked-entry buffers
  // (the drain returns each drained vector to a pool for later parks).
  const ActorId relay_c = MakeActorId(kRelayType, 13);
  const ActorId echo = MakeActorId(kEchoType, 14);
  for (int i = 0; i < 10; i++) {
    client.Call(
        relay_c, 0, 100,
        [&](const Response& r) {
          EXPECT_FALSE(r.failed);
          responses++;
        },
        echo);
  }
  sim.RunUntil(Seconds(4));
  EXPECT_EQ(responses, 30);
  EXPECT_EQ(CountHosts(cluster, relay_c), 1);
}

TEST(RuntimeTest, TurnBasedExecutionSerializesCalls) {
  // An actor with 10 concurrent calls must process them one at a time:
  // with 20 µs handler compute the last response completes no earlier than
  // 10 * 20 µs after the first turn starts.
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster(2));
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId echo = MakeActorId(kEchoType, 3);
  client.Call(echo, 1, 100);  // warm up (activation)
  sim.RunUntil(Seconds(1));

  SimTime first_response = 0;
  SimTime last_response = 0;
  int responses = 0;
  for (int i = 0; i < 10; i++) {
    client.Call(echo, 1, 100, [&](const Response&) {
      if (responses == 0) {
        first_response = sim.now();
      }
      responses++;
      last_response = sim.now();
    });
  }
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(responses, 10);
  EXPECT_GE(last_response - first_response, Micros(20) * 9);
}

TEST(RuntimeTest, SecondCallUsesLocationCache) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId relay = MakeActorId(kRelayType, 1);
  const ActorId echo = MakeActorId(kEchoType, 2);
  client.Call(relay, 0, 100, nullptr, echo);
  sim.RunUntil(Seconds(1));

  // The relay's server must now know echo's location.
  ServerId relay_server = kNoServer;
  for (int s = 0; s < cluster.num_servers(); s++) {
    if (cluster.server(s).IsActive(relay)) {
      relay_server = static_cast<ServerId>(s);
    }
  }
  ASSERT_NE(relay_server, kNoServer);
  ServerId echo_server = kNoServer;
  for (int s = 0; s < cluster.num_servers(); s++) {
    if (cluster.server(s).IsActive(echo)) {
      echo_server = static_cast<ServerId>(s);
    }
  }
  if (relay_server != echo_server) {
    EXPECT_EQ(cluster.server(relay_server).location_cache().Peek(echo), echo_server);
  }
}

TEST(RuntimeTest, MigrationMovesActivationViaCacheHint) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  // Spread relays around so we can later call from the echo's OLD host —
  // the §4.3 opportunistic path: p or q's cache hint drives re-placement.
  const ActorId echo = MakeActorId(kEchoType, 1);
  client.Call(echo, 1, 100);
  for (uint64_t k = 1; k <= 40; k++) {
    client.Call(MakeActorId(kRelayType, k), 1, 100);
  }
  sim.RunUntil(Seconds(2));

  const ServerId host = HostOf(cluster, echo);
  ASSERT_NE(host, kNoServer);
  ActorId relay_on_host = kNoActor;
  for (uint64_t k = 1; k <= 40; k++) {
    if (cluster.server(host).IsActive(MakeActorId(kRelayType, k))) {
      relay_on_host = MakeActorId(kRelayType, k);
      break;
    }
  }
  ASSERT_NE(relay_on_host, kNoActor);

  const ServerId dest = (host + 1) % cluster.num_servers();
  ASSERT_TRUE(cluster.server(host).MigrateActor(echo, dest));
  EXPECT_FALSE(cluster.server(host).IsActive(echo));
  sim.RunUntil(sim.now() + Seconds(1));

  // A call issued from the old host follows its primed cache to `dest`.
  int responses = 0;
  client.Call(relay_on_host, 0, 100, [&](const Response&) { responses++; }, echo);
  sim.RunUntil(sim.now() + Seconds(2));
  EXPECT_EQ(responses, 1);
  EXPECT_TRUE(cluster.server(dest).IsActive(echo));
  // State survived the migration: the call counter kept counting.
  auto* actor = static_cast<EchoActor*>(cluster.GetOrCreateActor(echo));
  EXPECT_EQ(actor->calls(), 2);
  EXPECT_EQ(cluster.total_migrations(), 1u);
}

TEST(RuntimeTest, MigrationThenThirdPartyCallReactivatesAtCaller) {
  // §4.3: if the next message comes from neither p nor q, the actor is
  // placed on the server that originated the call.
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId echo = MakeActorId(kEchoType, 1);
  client.Call(echo, 1, 100);
  for (uint64_t k = 1; k <= 40; k++) {
    client.Call(MakeActorId(kRelayType, k), 1, 100);
  }
  sim.RunUntil(Seconds(2));

  const ServerId host = HostOf(cluster, echo);
  ASSERT_NE(host, kNoServer);
  const ServerId dest = (host + 1) % cluster.num_servers();
  const ServerId third = (host + 2) % cluster.num_servers();
  ActorId relay_on_third = kNoActor;
  for (uint64_t k = 1; k <= 40; k++) {
    if (cluster.server(third).IsActive(MakeActorId(kRelayType, k))) {
      relay_on_third = MakeActorId(kRelayType, k);
      break;
    }
  }
  ASSERT_NE(relay_on_third, kNoActor);
  ASSERT_TRUE(cluster.server(host).MigrateActor(echo, dest));
  sim.RunUntil(sim.now() + Seconds(1));

  int responses = 0;
  client.Call(relay_on_third, 0, 100, [&](const Response&) { responses++; }, echo);
  sim.RunUntil(sim.now() + Seconds(2));
  EXPECT_EQ(responses, 1);
  // The third server had no hint (unless it had cached the old location,
  // which then forwarded to... the old host whose hint points at dest).
  // Either way the actor is live on exactly one of {dest, third}.
  const ServerId new_host = HostOf(cluster, echo);
  EXPECT_TRUE(new_host == dest || new_host == third) << "host " << new_host;
}

TEST(RuntimeTest, MigrationRefusedWhileBusy) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId relay = MakeActorId(kRelayType, 1);
  const ActorId echo = MakeActorId(kEchoType, 2);
  // Activate the relay first so the busy-window test starts from a settled
  // state.
  client.Call(relay, 1, 100);
  sim.RunUntil(Seconds(1));
  ServerId host = kNoServer;
  for (int s = 0; s < cluster.num_servers(); s++) {
    if (cluster.server(s).IsActive(relay)) {
      host = static_cast<ServerId>(s);
    }
  }
  ASSERT_NE(host, kNoServer);
  EXPECT_TRUE(cluster.server(host).IsMigratable(relay));

  // Issue a relayed call; while the sub-call to echo is outstanding, the
  // relay holds an open context and must not be migratable.
  client.Call(relay, 0, 100, nullptr, echo);
  bool observed_busy = false;
  for (int step = 0; step < 5000; step++) {
    sim.RunUntil(sim.now() + Micros(100));
    if (!cluster.server(host).IsMigratable(relay) && cluster.server(host).IsActive(relay)) {
      observed_busy = true;
      EXPECT_FALSE(
          cluster.server(host).MigrateActor(relay, (host + 1) % cluster.num_servers()));
      break;
    }
  }
  EXPECT_TRUE(observed_busy);
  sim.RunUntil(sim.now() + Seconds(2));
  // After the call completes, migration becomes possible again.
  EXPECT_TRUE(cluster.server(host).IsMigratable(relay));
}

TEST(RuntimeTest, RemoteAndLocalMessageCounting) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  // 50 relay->echo pairs; with random placement ~75% of pairs are split.
  int responses = 0;
  for (uint64_t k = 1; k <= 50; k++) {
    client.Call(
        MakeActorId(kRelayType, k), 0, 100, [&](const Response&) { responses++; },
        MakeActorId(kEchoType, k));
  }
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(responses, 50);
  uint64_t remote = 0;
  uint64_t local = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    remote += cluster.server(s).remote_app_messages();
    local += cluster.server(s).local_app_messages();
  }
  // Each pair: call + response = 2 app messages.
  EXPECT_EQ(remote + local, 100u);
  EXPECT_GT(remote, 40u);  // E[remote] = 75
  EXPECT_GT(cluster.RemoteMessageFraction(), 0.4);
}

TEST(RuntimeTest, CrashReactivatesActorElsewhere) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId echo = MakeActorId(kEchoType, 1);
  client.Call(echo, 1, 100);
  sim.RunUntil(Seconds(1));
  ServerId host = kNoServer;
  for (int s = 0; s < cluster.num_servers(); s++) {
    if (cluster.server(s).IsActive(echo)) {
      host = static_cast<ServerId>(s);
    }
  }
  ASSERT_NE(host, kNoServer);
  cluster.CrashServer(host);
  EXPECT_FALSE(cluster.server(host).IsActive(echo));

  // Virtual-actor fault tolerance: the next call re-instantiates the actor.
  int responses = 0;
  client.Call(echo, 1, 100, [&](const Response&) { responses++; });
  sim.RunUntil(sim.now() + Seconds(2));
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(cluster.total_activations(), 1);
}

TEST(RuntimeTest, ExpiredUnregisterFenceIsSweptAway) {
  // Deactivating an actor whose home shard is remote fences its
  // registration until the unregister has surely landed. An expired fence
  // is inert, so the timeout sweep must drop it: otherwise every
  // deactivation without a later directory answer holds one forever.
  ClusterConfig cfg = SmallCluster();
  cfg.server.call_timeout = Seconds(2);  // swept every second
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, cfg);
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  ActorId echo = kNoActor;
  ServerId host = kNoServer;
  for (uint64_t k = 1; k <= 40 && echo == kNoActor; k++) {
    const ActorId candidate = MakeActorId(kEchoType, k);
    client.Call(candidate, 1, 100);
    sim.RunUntil(sim.now() + Millis(100));
    const ServerId where = HostOf(cluster, candidate);
    if (where != kNoServer && where != DirectoryHomeOf(candidate, cluster.num_servers())) {
      echo = candidate;
      host = where;
    }
  }
  ASSERT_NE(echo, kNoActor);
  Server& server = cluster.server(host);
  const size_t fences_before = server.num_unregister_fences();
  ASSERT_TRUE(server.DeactivateActor(echo));
  EXPECT_EQ(server.num_unregister_fences(), fences_before + 1);

  sim.RunUntil(sim.now() + cfg.server.call_timeout + Server::kTimeoutSweepPeriod);
  for (int s = 0; s < cluster.num_servers(); s++) {
    EXPECT_EQ(cluster.server(s).num_unregister_fences(), 0u) << "server " << s;
  }
}

TEST(RuntimeTest, SubcallToCrashedServerFailsViaTimeout) {
  ClusterConfig cfg = SmallCluster();
  cfg.server.call_timeout = Seconds(2);
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, cfg);
  RegisterTestActors(&cluster);
  DirectClient client(&cluster, 5);

  const ActorId relay = MakeActorId(kRelayType, 1);
  const ActorId echo = MakeActorId(kEchoType, 2);
  // Activate both.
  client.Call(relay, 1, 100);
  client.Call(echo, 1, 100);
  sim.RunUntil(Seconds(1));

  ServerId relay_host = kNoServer;
  ServerId echo_host = kNoServer;
  for (int s = 0; s < cluster.num_servers(); s++) {
    if (cluster.server(s).IsActive(relay)) {
      relay_host = static_cast<ServerId>(s);
    }
    if (cluster.server(s).IsActive(echo)) {
      echo_host = static_cast<ServerId>(s);
    }
  }
  ASSERT_NE(relay_host, kNoServer);
  if (relay_host == echo_host) {
    GTEST_SKIP() << "co-located by chance; crash would kill the relay too";
  }

  // Crash echo's server the instant the relay's sub-call is in flight.
  client.Call(relay, 0, 100, nullptr, echo);
  sim.RunUntil(sim.now() + Micros(400));
  cluster.CrashServer(echo_host);
  sim.RunUntil(sim.now() + Seconds(5));

  auto* relay_actor = static_cast<RelayActor*>(cluster.GetOrCreateActor(relay));
  // Either the sub-call raced ahead of the crash (0) or it failed (1) —
  // but the relay must not be stuck with an open context.
  EXPECT_TRUE(cluster.server(relay_host).IsMigratable(relay));
  EXPECT_LE(relay_actor->failed_subcalls(), 1);
}

TEST(RuntimeTest, ThreadAllocationApplies) {
  ShardedEngine engine{{}};
  Cluster cluster(&engine, SmallCluster());
  RegisterTestActors(&cluster);
  cluster.server(0).ApplyThreadAllocation({2, 3, 4, 5});
  EXPECT_EQ(cluster.server(0).stage(0).threads(), 2);
  EXPECT_EQ(cluster.server(0).stage(3).threads(), 5);
  EXPECT_EQ(cluster.server(0).cpu().total_threads(), 14);
}

TEST(RuntimeTest, DeterministicEndToEnd) {
  auto run = [](uint64_t seed) {
    ShardedEngine engine{{}};
    Simulation& sim = engine.sim();
    Cluster cluster(&engine, SmallCluster(4, seed));
    RegisterTestActors(&cluster);
    DirectClient client(&cluster, 5);
    uint64_t checksum = 0;
    for (uint64_t k = 1; k <= 30; k++) {
      client.Call(
          MakeActorId(kRelayType, k), 0, 100,
          [&, k](const Response&) { checksum = checksum * 31 + k + sim.now() % 1000003; },
          MakeActorId(kEchoType, k));
    }
    sim.RunUntil(Seconds(5));
    return checksum;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// --- Call table --------------------------------------------------------------
//
// One server, so every sub-call below is local. The hold actor keeps each
// call's context without replying; the tests answer them at chosen times.

constexpr ActorType kHoldType = 120;
constexpr ActorType kIssuerType = 121;

class HoldActor : public Actor {
 public:
  void OnCall(CallContext& ctx) override { held_.push_back(&ctx); }
  CallContext& held(size_t i) { return *held_.at(i); }
  size_t num_held() const { return held_.size(); }

 private:
  std::vector<CallContext*> held_;
};

struct Outcome {
  int tag;
  bool failed;
  SimTime at;
};

// Each call issues one sub-call, tagged with the call's method id, to the
// actor named by app_data and replies at once; the sub-call's continuation
// logs its outcome.
class IssuerActor : public Actor {
 public:
  IssuerActor(Simulation* sim, std::vector<Outcome>* log) : sim_(sim), log_(log) {}

  void OnCall(CallContext& ctx) override {
    const int tag = static_cast<int>(ctx.method());
    Simulation* sim = sim_;
    std::vector<Outcome>* log = log_;
    ctx.Call(static_cast<ActorId>(ctx.app_data()), 1, 64, [sim, log, tag](const Response& r) {
      log->push_back({tag, r.failed, sim->now()});
    });
    ctx.Reply(64);
  }

 private:
  Simulation* sim_;
  std::vector<Outcome>* log_;
};

class CallTableTest : public ::testing::Test {
 protected:
  static constexpr ActorId kHold = MakeActorId(kHoldType, 1);
  static constexpr ActorId kIssuer = MakeActorId(kIssuerType, 1);
  static constexpr ActorId kRelay = MakeActorId(kRelayType, 1);

  CallTableTest() {
    cluster_.RegisterActorType(
        kHoldType, [](ActorId) { return std::make_unique<HoldActor>(); }, Micros(20));
    cluster_.RegisterActorType(
        kIssuerType,
        [this](ActorId) { return std::make_unique<IssuerActor>(&sim_, &log_); }, Micros(20));
    cluster_.RegisterActorType(
        kRelayType, [](ActorId) { return std::make_unique<RelayActor>(); }, Micros(20));
  }

  static ClusterConfig Config() {
    ClusterConfig cfg = SmallCluster(1, 3);
    cfg.server.call_timeout = Seconds(2);  // swept every second
    return cfg;
  }

  // Has the issuer send one sub-call tagged `tag` to the hold actor, then
  // runs 100 ms so calls issued back to back stay in order.
  void Issue(int tag) {
    client_.Call(kIssuer, static_cast<MethodId>(tag), 100, nullptr, kHold);
    sim_.RunUntil(sim_.now() + Millis(100));
  }

  HoldActor& hold() { return *static_cast<HoldActor*>(cluster_.GetOrCreateActor(kHold)); }

  std::vector<int> Tags() const {
    std::vector<int> tags;
    for (const Outcome& o : log_) tags.push_back(o.tag);
    return tags;
  }

  ShardedEngine engine_{{}};
  Simulation& sim_ = engine_.sim();
  Cluster cluster_{&engine_, Config()};
  DirectClient client_{&cluster_, 5};
  std::vector<Outcome> log_;
};

TEST_F(CallTableTest, TimeoutsFireInIssueOrderPastAnsweredCalls) {
  // Calls 0..4 go out 400 ms apart (deadlines ~2.0, 2.4, 2.8, 3.2, 3.6 s);
  // 1 and 3 are answered before theirs. The 3 s sweep must fail 0 then 2,
  // stepping over answered call 1, and the 4 s sweep fails 4.
  for (int tag = 0; tag < 5; tag++) {
    Issue(tag);
    sim_.RunUntil(sim_.now() + Millis(300));
  }
  ASSERT_EQ(hold().num_held(), 5u);
  hold().held(1).Reply(64);
  hold().held(3).Reply(64);
  sim_.RunUntil(Seconds(6));

  ASSERT_EQ(log_.size(), 5u);
  EXPECT_EQ(Tags(), (std::vector<int>{1, 3, 0, 2, 4}));
  EXPECT_FALSE(log_[0].failed);
  EXPECT_FALSE(log_[1].failed);
  for (size_t i = 2; i < 5; i++) {
    EXPECT_TRUE(log_[i].failed) << "call " << log_[i].tag;
  }
  EXPECT_GE(log_[2].at, Seconds(3));
  EXPECT_LT(log_[3].at, Seconds(4));
  EXPECT_GE(log_[4].at, Seconds(4));
  // Every sub-call is accounted for: the issuer holds nothing open.
  EXPECT_TRUE(cluster_.server(0).IsMigratable(kIssuer));
}

TEST_F(CallTableTest, LateResponseAfterTimeoutIsIgnored) {
  Issue(7);
  sim_.RunUntil(Seconds(4));
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_TRUE(log_[0].failed);

  hold().held(0).Reply(64);
  sim_.RunUntil(Seconds(6));
  ASSERT_EQ(log_.size(), 1u);  // the continuation ran once, as a failure
  EXPECT_EQ(log_[0].tag, 7);
  EXPECT_TRUE(log_[0].failed);
}

TEST_F(CallTableTest, StaleResponseToReusedSlotIsIgnored) {
  Issue(1);
  sim_.RunUntil(Seconds(4));  // call 1 fails at the 3 s sweep; its slot frees
  ASSERT_EQ(log_.size(), 1u);
  Issue(2);  // the server's only call slot now carries call 2
  ASSERT_EQ(hold().num_held(), 2u);

  hold().held(0).Reply(64);  // answers call 1, long gone
  sim_.RunUntil(sim_.now() + Millis(100));
  EXPECT_EQ(log_.size(), 1u);
  EXPECT_FALSE(cluster_.server(0).IsMigratable(kIssuer));  // call 2 still pending

  hold().held(1).Reply(64);
  sim_.RunUntil(sim_.now() + Millis(100));
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].tag, 2);
  EXPECT_FALSE(log_[1].failed);
}

TEST_F(CallTableTest, CrashDropsPendingCallsButQueuedContinuationRuns) {
  Issue(1);
  Issue(2);
  ASSERT_EQ(hold().num_held(), 2u);
  // In one event: answer call 2, which queues its continuation's worker
  // turn, then crash with call 1 still pending.
  const SimTime crash_at = sim_.now() + Millis(100);
  sim_.ScheduleAt(crash_at, [&] {
    hold().held(1).Reply(64);
    cluster_.CrashServer(0);
  });
  sim_.RunUntil(Seconds(10));  // far past call 1's deadline
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].tag, 2);
  EXPECT_FALSE(log_[0].failed);
  EXPECT_GT(log_[0].at, crash_at);
}

TEST_F(CallTableTest, ContinuationQueuedBeforeCrashRepliesOnAnInertContext) {
  // The relay calls the hold actor and, not having replied in its turn, will
  // reply from the sub-call's continuation.
  int first_responses = 0;
  client_.Call(kRelay, 0, 100, [&](const Response&) { first_responses++; }, kHold);
  sim_.RunUntil(sim_.now() + Millis(100));
  ASSERT_EQ(hold().num_held(), 1u);

  // In one event: the hold actor replies, which queues the relay's
  // continuation turn; the server crashes; the relay is active again at once
  // and a new client call to it goes out. The continuation then replies on
  // the context of a turn that began before the crash.
  int second_responses = 0;
  uint64_t sent_before = 0;
  Server& server = cluster_.server(0);
  sim_.ScheduleAt(sim_.now() + Millis(100), [&] {
    hold().held(0).Reply(64);
    cluster_.CrashServer(0);
    server.ForceActivateForTest(kRelay);
    sent_before = cluster_.network().total_messages();
    client_.Call(kRelay, 1, 100, [&](const Response&) { second_responses++; });
  });
  sim_.RunUntil(Seconds(10));

  // The pre-crash reply sent nothing: the network carried only the new call
  // and its response, and the new activation's counters balance.
  EXPECT_EQ(first_responses, 0);
  EXPECT_EQ(second_responses, 1);
  EXPECT_EQ(cluster_.network().total_messages(), sent_before + 2);
  EXPECT_TRUE(server.IsMigratable(kRelay));
}

TEST_F(CallTableTest, InertContextStillRejectsASecondReply) {
  int responses = 0;
  client_.Call(kHold, 0, 100, [&](const Response&) { responses++; });
  sim_.RunUntil(sim_.now() + Millis(100));
  ASSERT_EQ(hold().num_held(), 1u);
  cluster_.CrashServer(0);

  const uint64_t sent_before = cluster_.network().total_messages();
  hold().held(0).Reply(64);  // the turn began before the crash: sends nothing
  sim_.RunUntil(sim_.now() + Millis(100));
  EXPECT_EQ(cluster_.network().total_messages(), sent_before);
  EXPECT_EQ(responses, 0);
  EXPECT_DEATH(hold().held(0).Reply(64), "replied_");
}

}  // namespace
}  // namespace actop
