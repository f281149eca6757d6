#include "src/workload/heartbeat.h"

#include <memory>

#include "src/actor/actor.h"
#include "src/common/check.h"

namespace actop {

namespace {

class MonitorActor : public Actor {
 public:
  void OnCall(CallContext& ctx) override {
    last_update_ = ctx.now();
    updates_++;
    ctx.Reply(64);
  }

 private:
  SimTime last_update_ = 0;
  uint64_t updates_ = 0;
};

}  // namespace

HeartbeatWorkload::HeartbeatWorkload(Cluster* cluster, HeartbeatWorkloadConfig config)
    : cluster_(cluster),
      config_(config),
      clients_(
          cluster,
          ClientConfig{.request_rate = config.request_rate,
                       .request_bytes = config.request_bytes,
                       .timeout = config.client_timeout,
                       .seed = config.seed},
          [num = config.num_monitors](Rng& rng, ActorId* target, MethodId* method) {
            *target =
                MakeActorId(kMonitorActorType, rng.NextBounded(static_cast<uint64_t>(num)) + 1);
            *method = 0;
            return true;
          }) {
  ACTOP_CHECK(cluster != nullptr);
  cluster_->RegisterActorType(
      kMonitorActorType, [](ActorId) { return std::make_unique<MonitorActor>(); },
      config_.handler_compute);
}

void HeartbeatWorkload::Start() {
  if (!config_.external_clients) {
    clients_.Start();
  }
}

void HeartbeatWorkload::Stop() { clients_.Stop(); }

}  // namespace actop
