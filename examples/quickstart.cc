// Quickstart: define an actor type, run a small cluster, call the actor.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart
//
// The example defines a GreeterActor, registers it with a 4-server simulated
// cluster, sends it calls from a client, and prints what happened — covering
// the core public API: Cluster, Actor/CallContext, DirectClient, and the
// virtual-actor lifecycle (activation on first call, transparent location).

#include <cstdio>
#include <memory>

#include "src/actor/actor.h"
#include "src/common/sim_time.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"

namespace {

constexpr actop::ActorType kGreeterType = 1;

// An actor is a plain class; one instance exists per ActorId, activated on
// demand by whichever server the runtime places it on.
class GreeterActor : public actop::Actor {
 public:
  void OnCall(actop::CallContext& ctx) override {
    greetings_++;
    std::printf("  [sim t=%.3f ms] greeter %llu handled call #%d (method %u)\n",
                actop::ToMillis(ctx.now()), static_cast<unsigned long long>(ctx.self()),
                greetings_, ctx.method());
    ctx.Reply(/*payload_bytes=*/64);
  }

 private:
  int greetings_ = 0;
};

}  // namespace

int main() {
  // A one-shard engine is the serial simulator; more shards run the servers
  // in parallel.
  actop::ShardedEngine engine{{}};

  // A simulated cluster: 4 servers, each an 8-core SEDA silo.
  actop::ClusterConfig config;
  config.num_servers = 4;
  actop::Cluster cluster(&engine, config);

  // Register the actor type; the factory runs on first activation.
  cluster.RegisterActorType(
      kGreeterType, [](actop::ActorId) { return std::make_unique<GreeterActor>(); },
      /*handler_compute=*/actop::Micros(20));

  // A client issues calls through random gateway servers.
  actop::DirectClient client(&cluster, /*seed=*/1);
  for (uint64_t key = 1; key <= 3; key++) {
    const actop::ActorId greeter = actop::MakeActorId(kGreeterType, key);
    client.Call(greeter, /*method=*/0, /*payload_bytes=*/128,
                [key](const actop::Response& response) {
                  std::printf("  client: greeter %llu replied (%u bytes)\n",
                              static_cast<unsigned long long>(key), response.payload_bytes);
                });
    client.Call(greeter, /*method=*/1, 128);  // no continuation: one-way
  }

  // Run the simulation to completion.
  engine.RunUntil(actop::Seconds(1));

  std::printf("\ncluster hosted %lld activations across %d servers:\n",
              static_cast<long long>(cluster.total_activations()), cluster.num_servers());
  for (int s = 0; s < cluster.num_servers(); s++) {
    std::printf("  server %d: %lld actors\n", s,
                static_cast<long long>(cluster.server(s).num_activations()));
  }
  return 0;
}
