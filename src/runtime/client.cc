#include "src/runtime/client.h"

#include <utility>

#include "src/common/check.h"
#include "src/runtime/envelope_pool.h"
#include "src/runtime/message.h"

namespace actop {

ClientPool::ClientPool(Cluster* cluster, ClientConfig config, TargetFn target_fn)
    : sim_(&cluster->sim()),
      cluster_(cluster),
      config_(config),
      target_fn_(std::move(target_fn)),
      rng_(config.seed) {
  ACTOP_CHECK(target_fn_ != nullptr);
  ACTOP_CHECK(config_.request_rate > 0.0);
  node_ = cluster_->AddClientNode([this](NodeId, uint32_t, EnvelopePtr env) {
    OnDeliver(std::move(env));
  });
  sim_->SchedulePeriodic(Seconds(1), [this] { SweepTimeouts(); });
}

void ClientPool::Start() {
  ACTOP_CHECK(!running_);
  running_ = true;
  ScheduleNextArrival();
}

void ClientPool::Stop() { running_ = false; }

void ClientPool::ResetStats() {
  latency_.Reset();
  issued_ = 0;
  completed_ = 0;
  timeouts_ = 0;
}

void ClientPool::ScheduleNextArrival() {
  const double mean_gap_ns = 1e9 / config_.request_rate;
  const auto gap = static_cast<SimDuration>(rng_.NextExp(mean_gap_ns) + 0.5);
  sim_->ScheduleAfter(gap, [this] {
    if (!running_) {
      return;
    }
    IssueRequest();
    ScheduleNextArrival();
  });
}

void ClientPool::Inject() { IssueRequest(); }

void ClientPool::InjectTo(ActorId target, MethodId method) { SendCall(target, method); }

void ClientPool::IssueRequest() {
  ActorId target = kNoActor;
  MethodId method = 0;
  if (!target_fn_(rng_, &target, &method)) {
    return;
  }
  SendCall(target, method);
}

void ClientPool::SendCall(ActorId target, MethodId method) {
  const uint64_t seq = next_seq_++;
  auto env = MakeEnvelope();
  env->kind = MessageKind::kCall;
  env->call_id = CallId{node_, seq};
  env->target = target;
  env->source_actor = kNoActor;
  env->method = method;
  env->payload_bytes = config_.request_bytes;
  env->reply_to = node_;

  pending_.Insert(seq, sim_->now());
  timeout_queue_.push_back({sim_->now() + config_.timeout, seq});
  issued_++;

  // Requests enter through a random gateway server.
  const auto gateway = static_cast<ServerId>(
      rng_.NextBounded(static_cast<uint64_t>(cluster_->num_servers())));
  cluster_->network().Send(node_, cluster_->NodeOfServer(gateway), config_.request_bytes,
                           std::move(env));
}

void ClientPool::OnDeliver(EnvelopePtr env) {
  ACTOP_CHECK(env->kind == MessageKind::kResponse);
  const SimTime* sent_at = pending_.Find(env->call_id.seq);
  if (sent_at == nullptr) {
    return;  // already timed out
  }
  latency_.Record(sim_->now() - *sent_at);
  pending_.Erase(env->call_id.seq);
  completed_++;
}

void ClientPool::SweepTimeouts() {
  const SimTime now = sim_->now();
  while (!timeout_queue_.empty() && timeout_queue_.front().first <= now) {
    const uint64_t seq = timeout_queue_.front().second;
    timeout_queue_.pop_front();
    if (pending_.Erase(seq)) {
      timeouts_++;
    }
  }
}

DirectClient::DirectClient(Cluster* cluster, uint64_t seed) : cluster_(cluster), rng_(seed) {
  ACTOP_CHECK(cluster != nullptr);
  node_ = cluster_->AddClientNode([this](NodeId, uint32_t, EnvelopePtr env) {
    OnDeliver(std::move(env));
  });
}

void DirectClient::Call(ActorId target, MethodId method, uint32_t payload_bytes,
                        ResponseFn on_response, uint64_t app_data) {
  const uint64_t seq = next_seq_++;
  auto env = MakeEnvelope();
  env->kind = MessageKind::kCall;
  env->call_id = CallId{node_, on_response == nullptr ? 0 : seq};
  env->target = target;
  env->method = method;
  env->app_data = app_data;
  env->payload_bytes = payload_bytes;
  env->reply_to = node_;
  if (on_response != nullptr) {
    pending_.Insert(seq, std::move(on_response));
  }
  const auto gateway = static_cast<ServerId>(
      rng_.NextBounded(static_cast<uint64_t>(cluster_->num_servers())));
  cluster_->network().Send(node_, cluster_->NodeOfServer(gateway), payload_bytes,
                           std::move(env));
}

void DirectClient::OnDeliver(EnvelopePtr env) {
  ResponseFn* found = pending_.Find(env->call_id.seq);
  if (found == nullptr) {
    return;
  }
  ResponseFn on_response = std::move(*found);
  pending_.Erase(env->call_id.seq);
  Response response;
  response.from = env->source_actor;
  response.payload_bytes = env->payload_bytes;
  on_response(response);
}

}  // namespace actop
