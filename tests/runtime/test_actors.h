// Shared toy actors for runtime integration tests.

#ifndef TESTS_RUNTIME_TEST_ACTORS_H_
#define TESTS_RUNTIME_TEST_ACTORS_H_

#include <memory>

#include "src/actor/actor.h"
#include "src/runtime/cluster.h"

namespace actop {

inline constexpr ActorType kEchoType = 100;
inline constexpr ActorType kRelayType = 101;

// Replies immediately; counts calls.
class EchoActor : public Actor {
 public:
  void OnCall(CallContext& ctx) override {
    calls_++;
    ctx.Reply(64);
  }
  int calls() const { return calls_; }

 private:
  int calls_ = 0;
};

// Method 0: call the actor named by app_data, reply after its response.
// Method 1: reply immediately.
class RelayActor : public Actor {
 public:
  void OnCall(CallContext& ctx) override {
    if (ctx.method() == 0 && ctx.app_data() != 0) {
      CallContext* call = &ctx;
      ctx.Call(static_cast<ActorId>(ctx.app_data()), 1, 128, [call, this](const Response& r) {
        if (r.failed) {
          failed_subcalls_++;
        }
        call->Reply(64);
      });
      return;
    }
    ctx.Reply(64);
  }
  int failed_subcalls() const { return failed_subcalls_; }

 private:
  int failed_subcalls_ = 0;
};

// Finds the server hosting `actor`, or kNoServer.
inline ServerId HostOf(Cluster& cluster, ActorId actor) {
  for (int s = 0; s < cluster.num_servers(); s++) {
    if (cluster.server(s).IsActive(actor)) {
      return static_cast<ServerId>(s);
    }
  }
  return kNoServer;
}

// Counts live activations of `actor` across the cluster (0 or 1 when the
// single-activation invariant holds).
inline int CountHosts(Cluster& cluster, ActorId actor) {
  int hosts = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    if (cluster.server(s).IsActive(actor)) {
      hosts++;
    }
  }
  return hosts;
}

inline void RegisterTestActors(Cluster* cluster) {
  cluster->RegisterActorType(
      kEchoType, [](ActorId) { return std::make_unique<EchoActor>(); }, Micros(20));
  cluster->RegisterActorType(
      kRelayType, [](ActorId) { return std::make_unique<RelayActor>(); }, Micros(20));
}

}  // namespace actop

#endif  // TESTS_RUNTIME_TEST_ACTORS_H_
