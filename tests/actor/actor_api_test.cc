// Tests of the application-facing actor API surface: handler cost and
// AddCompute, call-context semantics (caller identity, app_data, one-way
// calls, reply-once), and deep call chains.

#include "src/actor/actor.h"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "src/common/sim_time.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"

namespace actop {
namespace {

constexpr ActorType kApiProbeType = 120;
constexpr ActorType kChainType = 121;
constexpr ActorType kForwarderType = 122;

// The runtime's one concrete call record: no vtable behind the actor API.
static_assert(!std::is_polymorphic_v<CallContext>);

// Records everything the context exposes; method 2 adds extra compute.
class ProbeActor : public Actor {
 public:
  void OnCall(CallContext& ctx) override {
    last_method = ctx.method();
    last_app_data = ctx.app_data();
    last_caller = ctx.caller();
    last_payload = ctx.payload_bytes();
    if (ctx.method() == 2) {
      ctx.AddCompute(Millis(5));
    }
    ctx.Reply(64);
  }

  MethodId last_method = 0;
  uint64_t last_app_data = 0;
  ActorId last_caller = kNoActor;
  uint32_t last_payload = 0;
};

// Forms a call chain: actor k calls actor k-1 (app_data = remaining depth).
class ChainActor : public Actor {
 public:
  void OnCall(CallContext& ctx) override {
    const uint64_t depth = ctx.app_data();
    if (depth == 0) {
      ctx.Reply(8);
      return;
    }
    CallContext* call = &ctx;
    ctx.Call(
        MakeActorId(kChainType, depth), 0, 64, [call](const Response&) { call->Reply(8); },
        depth - 1);
  }
};

// Forwards each call one-way (no continuation) to the probe named by the
// method, passing the caller's app_data on, then replies.
class ForwarderActor : public Actor {
 public:
  void OnCall(CallContext& ctx) override {
    ctx.Call(MakeActorId(kApiProbeType, ctx.method()), 5, 48, nullptr, ctx.app_data());
    ctx.Reply(8);
  }
};

struct ApiFixture : public ::testing::Test {
  ApiFixture() : cluster(&engine, ClusterConfig{.num_servers = 2, .seed = 4}) {
    cluster.RegisterActorType(
        kApiProbeType, [](ActorId) { return std::make_unique<ProbeActor>(); }, Micros(20));
    cluster.RegisterActorType(
        kChainType, [](ActorId) { return std::make_unique<ChainActor>(); }, Micros(10));
    cluster.RegisterActorType(
        kForwarderType, [](ActorId) { return std::make_unique<ForwarderActor>(); }, Micros(10));
  }

  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster;
};

TEST_F(ApiFixture, ContextExposesCallMetadata) {
  DirectClient client(&cluster, 1);
  const ActorId probe = MakeActorId(kApiProbeType, 1);
  client.Call(probe, 7, 333, nullptr, 0xabcdef);
  sim.RunUntil(Seconds(1));
  auto* actor = static_cast<ProbeActor*>(cluster.GetOrCreateActor(probe));
  EXPECT_EQ(actor->last_method, 7u);
  EXPECT_EQ(actor->last_app_data, 0xabcdefu);
  EXPECT_EQ(actor->last_payload, 333u);
  EXPECT_EQ(actor->last_caller, kNoActor);  // client call
}

TEST_F(ApiFixture, CallerIdentityForActorCalls) {
  DirectClient client(&cluster, 1);
  const ActorId chain1 = MakeActorId(kChainType, 1);
  const ActorId chain0 = MakeActorId(kChainType, 7);
  // chain 7 called with depth 1 -> it calls MakeActorId(kChainType, 1) with
  // depth 0; probe the callee's recorded caller via a second hop check:
  int responses = 0;
  client.Call(chain0, 0, 64, [&](const Response&) { responses++; }, 1);
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(responses, 1);
  EXPECT_TRUE(cluster.HasActorState(chain1));
}

TEST_F(ApiFixture, OneWayContextCallDeliversAppDataWithoutResponse) {
  DirectClient client(&cluster, 1);
  const ActorId forwarder = MakeActorId(kForwarderType, 1);
  const ActorId probe = MakeActorId(kApiProbeType, 9);
  int responses = 0;
  client.Call(forwarder, 9, 64, [&](const Response&) { responses++; }, 0x5eed);
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(responses, 1);  // the forwarder's own reply to the client
  auto* actor = static_cast<ProbeActor*>(cluster.GetOrCreateActor(probe));
  EXPECT_EQ(actor->last_method, 5u);
  EXPECT_EQ(actor->last_app_data, 0x5eedu);
  EXPECT_EQ(actor->last_payload, 48u);
  EXPECT_EQ(actor->last_caller, forwarder);
  // Actor-to-actor messages: the one-way call leg only. A response from the
  // probe would count a second.
  uint64_t app_messages = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    app_messages += cluster.server(s).remote_app_messages() +
                    cluster.server(s).local_app_messages();
  }
  EXPECT_EQ(app_messages, 1u);
}

TEST_F(ApiFixture, AddComputeExtendsTurnSerialization) {
  // AddCompute lengthens the *turn*, so a queued follow-up call on the same
  // actor waits for the extra compute (the Reply already sent by the first
  // turn is not delayed — see CallContext::AddCompute docs).
  DirectClient client(&cluster, 1);
  const ActorId probe = MakeActorId(kApiProbeType, 3);
  client.Call(probe, 0, 64);  // activate
  sim.RunUntil(Seconds(1));

  SimTime first_done = 0;
  SimTime second_done = 0;
  client.Call(probe, 2, 64, [&](const Response&) { first_done = sim.now(); });
  client.Call(probe, 0, 64, [&](const Response&) { second_done = sim.now(); });
  sim.RunUntil(sim.now() + Seconds(2));
  ASSERT_GT(first_done, 0);
  ASSERT_GT(second_done, 0);
  // The second call's turn cannot start until the first turn's extra 5 ms
  // finishes, so its response trails the first by at least ~5 ms minus the
  // return-path difference (both take the same path; use 4 ms for slack).
  EXPECT_GE(second_done - first_done, Millis(4));
}

TEST_F(ApiFixture, DeepCallChainCompletes) {
  DirectClient client(&cluster, 1);
  int responses = 0;
  client.Call(
      MakeActorId(kChainType, 64), 0, 64,
      [&](const Response& r) {
        EXPECT_FALSE(r.failed);
        responses++;
      },
      40);
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(responses, 1);
  // Every intermediate actor in the chain got activated.
  for (uint64_t d = 1; d <= 40; d++) {
    EXPECT_TRUE(cluster.HasActorState(MakeActorId(kChainType, d))) << d;
  }
}

TEST(ActorIdTest, PackAndUnpackRoundTrip) {
  const ActorId id = MakeActorId(0xBEEF, 0x123456789ABCull);
  EXPECT_EQ(ActorTypeOf(id), 0xBEEFu);
  EXPECT_EQ(ActorKeyOf(id), 0x123456789ABCull);
}

}  // namespace
}  // namespace actop
