#include "src/workload/counter.h"

#include <memory>

#include "src/actor/actor.h"
#include "src/common/check.h"

namespace actop {

namespace {

constexpr uint32_t kRequestBytes = 150;
constexpr SimDuration kHandlerCompute = Micros(25);

class CounterActor : public Actor {
 public:
  void OnCall(CallContext& ctx) override {
    count_++;
    ctx.Reply(128);
  }

  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

}  // namespace

CounterWorkload::CounterWorkload(Cluster* cluster, CounterWorkloadConfig config)
    : cluster_(cluster),
      config_(config),
      clients_(
          cluster,
          ClientConfig{.request_rate = config.request_rate,
                       .request_bytes = kRequestBytes,
                       .seed = config.seed},
          [num_actors = config.num_actors](Rng& rng, ActorId* target, MethodId* method) {
            *target = MakeActorId(kCounterActorType,
                                  rng.NextBounded(static_cast<uint64_t>(num_actors)) + 1);
            *method = 0;
            return true;
          }) {
  ACTOP_CHECK(cluster != nullptr);
  cluster_->RegisterActorType(
      kCounterActorType, [](ActorId) { return std::make_unique<CounterActor>(); },
      kHandlerCompute);
}

void CounterWorkload::Start() { clients_.Start(); }

void CounterWorkload::Stop() { clients_.Stop(); }

uint64_t CounterWorkload::TotalCount() const {
  uint64_t total = 0;
  for (int i = 0; i < config_.num_actors; i++) {
    const ActorId id = MakeActorId(kCounterActorType, static_cast<uint64_t>(i) + 1);
    if (cluster_->HasActorState(id)) {
      auto* actor = static_cast<CounterActor*>(
          const_cast<Cluster*>(cluster_)->GetOrCreateActor(id));
      total += actor->count();
    }
  }
  return total;
}

}  // namespace actop
