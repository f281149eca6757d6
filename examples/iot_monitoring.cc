// IoT monitoring service — the third application domain from the paper's
// introduction (social networks, on-line games, Internet of Things).
//
// Each device is an actor that periodically pushes a reading to its regional
// aggregator actor; dashboards query aggregators for rollups. Devices in a
// region form a heavy communication cluster around their aggregator, so
// ActOp migrates each region onto one server. The example also crashes a
// server mid-run to show virtual-actor fault tolerance: the next call
// re-activates the lost actors elsewhere with their state intact (state
// lives in the cluster's store, as Orleans state lives in storage).

#include <cstdio>
#include <memory>

#include "src/actor/actor.h"
#include "src/common/sim_time.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"

namespace {

constexpr actop::ActorType kDeviceType = 1;
constexpr actop::ActorType kAggregatorType = 2;

constexpr actop::MethodId kPushReading = 0;   // client -> device
constexpr actop::MethodId kReport = 0;        // device -> aggregator
constexpr actop::MethodId kQueryRollup = 1;   // dashboard -> aggregator

class AggregatorActor : public actop::Actor {
 public:
  void OnCall(actop::CallContext& ctx) override {
    if (ctx.method() == kReport) {
      sum_ += static_cast<int64_t>(ctx.app_data());
      count_++;
      ctx.Reply(16);
      return;
    }
    ctx.Reply(128);  // kQueryRollup
  }

  int64_t count() const { return count_; }

 private:
  int64_t sum_ = 0;
  int64_t count_ = 0;
};

class DeviceActor : public actop::Actor {
 public:
  void OnCall(actop::CallContext& ctx) override {
    // Device keys encode their region: key = region * 1000 + index.
    const uint64_t region = actop::ActorKeyOf(ctx.self()) / 1000;
    readings_++;
    actop::CallContext* call = &ctx;
    ctx.Call(
        actop::MakeActorId(kAggregatorType, region), kReport, 96,
        [call](const actop::Response&) { call->Reply(32); }, /*reading=*/readings_ % 100);
  }

 private:
  int64_t readings_ = 0;
};

}  // namespace

int main() {
  constexpr int kRegions = 24;
  constexpr int kDevicesPerRegion = 100;

  actop::ShardedEngine engine{{}};
  actop::ClusterConfig config;
  config.num_servers = 4;
  config.seed = 99;
  config.enable_partitioning = true;
  config.partition.exchange_period = actop::Seconds(2);
  config.partition.exchange_min_gap = actop::Seconds(2);
  config.partition.pairwise.candidate_set_size = 256;
  config.partition.pairwise.balance_delta = 120;
  actop::Cluster cluster(&engine, config);

  cluster.RegisterActorType(
      kDeviceType, [](actop::ActorId) { return std::make_unique<DeviceActor>(); },
      actop::Micros(15));
  cluster.RegisterActorType(
      kAggregatorType, [](actop::ActorId) { return std::make_unique<AggregatorActor>(); },
      actop::Micros(25));

  // Ingest frontend: each arrival is a random device pushing one reading.
  actop::ClientPool ingest(
      &cluster, actop::ClientConfig{.request_rate = 2000.0, .request_bytes = 160},
      [](actop::Rng& rng, actop::ActorId* target, actop::MethodId* method) {
        const uint64_t region = rng.NextBounded(kRegions) + 1;
        const uint64_t device = region * 1000 + rng.NextBounded(kDevicesPerRegion) + 1;
        *target = actop::MakeActorId(kDeviceType, device);
        *method = kPushReading;
        return true;
      });
  ingest.Start();
  cluster.StartOptimizers();

  engine.RunUntil(actop::Seconds(45));
  cluster.TakeMetricsWindow();
  engine.RunUntil(actop::Seconds(60));
  const auto before_crash = cluster.TakeMetricsWindow();
  std::printf("after 60 s: %lld activations, remote messages %.1f%% (started ~75%%)\n",
              static_cast<long long>(cluster.total_activations()),
              before_crash.remote_fraction() * 100.0);

  // Fault injection: lose a server; the runtime re-activates actors lazily.
  const long long before = cluster.server(1).num_activations();
  cluster.CrashServer(1);
  std::printf("crashed server 1 (%lld activations lost)\n", before);
  engine.RunUntil(actop::Seconds(90));

  int64_t readings = 0;
  for (uint64_t region = 1; region <= kRegions; region++) {
    const actop::ActorId aggregator = actop::MakeActorId(kAggregatorType, region);
    if (cluster.HasActorState(aggregator)) {
      readings += static_cast<AggregatorActor*>(cluster.GetOrCreateActor(aggregator))->count();
    }
  }
  std::printf("after recovery: %lld activations, %lld readings aggregated, "
              "%llu client timeouts, remote messages %.1f%%\n",
              static_cast<long long>(cluster.total_activations()), static_cast<long long>(readings),
              static_cast<unsigned long long>(ingest.timeouts()),
              cluster.TakeMetricsWindow().remote_fraction() * 100.0);
  std::printf("ingest median latency: %.2f ms\n",
              actop::ToMillis(ingest.latency().p50()));
  return 0;
}
