#include "src/testing/chaos_client.h"

#include "src/common/check.h"
#include "src/runtime/envelope_pool.h"

namespace actop {

ChaosClient::ChaosClient(Cluster* cluster, ChaosClientConfig config)
    : sim_(&cluster->sim()), cluster_(cluster), config_(config), rng_(config.seed) {
  node_ = cluster_->AddClientNode([this](NodeId, uint32_t, EnvelopePtr env) {
    OnDeliver(std::move(env));
  });
  constexpr SimDuration kSweepPeriod = Millis(500);  // timeout sweeps
  sim_->SchedulePeriodic(kSweepPeriod, [this] { SweepTimeouts(); });
}

void ChaosClient::Call(ActorId target, MethodId method, uint64_t app_data) {
  outcomes_.push_back(kPending);
  const uint64_t seq = outcomes_.size();
  auto env = MakeEnvelope();
  env->kind = MessageKind::kCall;
  env->call_id = CallId{node_, seq};
  env->target = target;
  env->source_actor = kNoActor;
  env->method = method;
  env->app_data = app_data;
  env->payload_bytes = config_.request_bytes;
  env->reply_to = node_;

  timeout_queue_.push_back({sim_->now() + config_.timeout, seq});

  const auto gateway =
      static_cast<ServerId>(rng_.NextBounded(static_cast<uint64_t>(cluster_->num_servers())));
  cluster_->network().Send(node_, cluster_->NodeOfServer(gateway), config_.request_bytes,
                           std::move(env));
}

void ChaosClient::OnDeliver(EnvelopePtr env) {
  ACTOP_CHECK(env->kind == MessageKind::kResponse);
  const uint64_t seq = env->call_id.seq;
  if (seq == 0 || seq > outcomes_.size()) {
    unknown_responses_++;
    return;
  }
  Outcome& outcome = outcomes_[seq - 1];
  switch (outcome) {
    case kPending:
      outcome = kSucceeded;
      succeeded_++;
      break;
    case kSucceeded:
      duplicate_responses_++;
      break;
    case kTimedOut:
      // The system answered after our deadline — the call was slow, not lost.
      late_responses_++;
      break;
  }
}

void ChaosClient::SweepTimeouts() {
  const SimTime now = sim_->now();
  while (!timeout_queue_.empty() && timeout_queue_.front().first <= now) {
    const uint64_t seq = timeout_queue_.front().second;
    timeout_queue_.pop_front();
    if (outcomes_[seq - 1] == kPending) {
      outcomes_[seq - 1] = kTimedOut;
      timed_out_++;
    }
  }
}

}  // namespace actop
