#include "src/runtime/server.h"

#include <algorithm>
#include <utility>

#include "src/common/asan.h"
#include "src/common/check.h"
#include "src/runtime/cluster.h"
#include "src/runtime/envelope_pool.h"
#include "src/runtime/partition_agent.h"

namespace actop {

namespace {
const char* const kStageNames[Server::kNumStages] = {"receive", "worker", "server_sender",
                                                     "client_sender"};
}  // namespace

// Concrete CallContext bound to one delivered call; owns the call's
// envelope. Recycled through the server's free list (see Server::contexts_).
// A context whose turn began before the server's latest crash is inert: the
// crash dropped the activation it belonged to, so its calls and reply send
// nothing and touch no activation counters.
class ServerCallContext : public CallContext {
 public:
  ServerCallContext(Server* server, EnvelopePtr call, uint64_t epoch)
      : server_(server), call_(std::move(call)), epoch_(epoch) {}

  ActorId self() const override { return call_->target; }
  MethodId method() const override { return call_->method; }
  uint32_t payload_bytes() const override { return call_->payload_bytes; }
  uint64_t app_data() const override { return call_->app_data; }
  ActorId caller() const override { return call_->source_actor; }
  SimTime now() const override { return server_->sim_->now(); }

  void Call(ActorId target, MethodId method, uint32_t payload_bytes,
            ResponseFn on_response) override {
    CallWithData(target, method, 0, payload_bytes, std::move(on_response));
  }

  void CallWithData(ActorId target, MethodId method, uint64_t app_data, uint32_t payload_bytes,
                    ResponseFn on_response) override {
    if (!stale()) {
      server_->IssueCall(self(), target, method, app_data, payload_bytes,
                         std::move(on_response));
    }
  }

  void CallOneWay(ActorId target, MethodId method, uint32_t payload_bytes) override {
    CallWithData(target, method, 0, payload_bytes, nullptr);
  }

  void Reply(uint32_t payload_bytes) override {
    ACTOP_CHECK(!replied_);
    replied_ = true;
    if (stale()) {
      return;
    }
    server_->CompleteReply(self(), *call_, payload_bytes);
    if (retained_) {
      server_->FreeContext(this);  // last use of *this
    }
  }

  void AddCompute(SimDuration extra) override {
    ACTOP_CHECK(extra >= 0);
    extra_compute_ += extra;
  }

 private:
  friend class Server;

  bool stale() const { return epoch_ != server_->crash_epoch_; }

  Server* server_;
  EnvelopePtr call_;
  uint64_t epoch_;  // the server's crash epoch when the turn began
  bool replied_ = false;
  bool retained_ = false;
  SimDuration extra_compute_ = 0;
};

Server::Server(Simulation* sim, Cluster* cluster, ServerId id, ServerConfig config, uint64_t seed)
    : sim_(sim),
      cluster_(cluster),
      id_(id),
      config_(config),
      rng_(seed),
      location_cache_(config.location_cache_capacity) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(cluster != nullptr);
  cpu_ = std::make_unique<CpuModel>(sim_, config_.cores, config_.kappa,
                                    config_.dispatch_quantum, rng_.NextU64());
  if (config_.gc_mean_interval > 0) {
    cpu_->EnablePauses(config_.gc_mean_interval, config_.gc_base_duration,
                       config_.gc_per_thread_factor, config_.gc_superlinear_exponent);
  }
  for (int i = 0; i < kNumStages; i++) {
    stages_.push_back(std::make_unique<Stage>(sim_, cpu_.get(), kStageNames[i],
                                              config_.initial_threads_per_stage,
                                              config_.stage_queue_capacity));
  }
  cpu_->set_total_threads(config_.initial_threads_per_stage * kNumStages);
  sim_->SchedulePeriodic(config_.timeout_sweep_period, [this] { SweepTimeouts(); });
}

Server::~Server() {
  // contexts_ destroys every context, parked ones included.
  for (ServerCallContext* ctx : free_contexts_) {
    ASAN_UNPOISON_MEMORY_REGION(ctx, sizeof(ServerCallContext));
  }
}

void Server::ApplyThreadAllocation(const std::vector<int>& threads) {
  ACTOP_CHECK(threads.size() == static_cast<size_t>(kNumStages));
  int total = 0;
  for (int i = 0; i < kNumStages; i++) {
    stages_[static_cast<size_t>(i)]->set_threads(threads[static_cast<size_t>(i)]);
    total += threads[static_cast<size_t>(i)];
  }
  cpu_->set_total_threads(total);
}

SimDuration Server::SampleCost(SimDuration mean) {
  if (!config_.exponential_costs || mean <= 0) {
    return mean;
  }
  return rng_.NextExpDuration(mean);
}

SimDuration Server::DeserializeCost(uint32_t bytes) {
  return SampleCost(config_.deserialize_base + static_cast<SimDuration>(
                        config_.deserialize_ns_per_byte * static_cast<double>(bytes)));
}

SimDuration Server::SerializeCost(uint32_t bytes) {
  return SampleCost(config_.serialize_base + static_cast<SimDuration>(
                        config_.serialize_ns_per_byte * static_cast<double>(bytes)));
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Server::OnNetworkMessage(NodeId from, uint32_t bytes, EnvelopePtr env) {
  env->via_network = true;
  SimDuration compute = DeserializeCost(bytes);
  if (env->kind == MessageKind::kControl) {
    compute += config_.control_compute;
  }
  StageEvent ev;
  ev.compute = compute;
  ev.done = [this, env = std::move(env), from]() mutable {
    switch (env->kind) {
      case MessageKind::kCall:
        RouteCall(std::move(env));
        break;
      case MessageKind::kResponse:
        HandleResponse(std::move(env));
        break;
      case MessageKind::kControl:
        HandleControl(*env, from);
        break;
    }
  };
  stages_[kReceive]->Enqueue(std::move(ev));
}

void Server::HandleControl(const Envelope& env, NodeId from) {
  const ServerId from_server = cluster_->ServerOfNode(from);
  if (const auto* req = std::get_if<DirLookupRequest>(&env.control)) {
    ACTOP_CHECK(DirectoryHomeOf(req->actor, cluster_->num_servers()) == id_);
    const DirEntry entry = directory_shard_.LookupOrRegister(req->actor, req->suggested_owner);
    SendControl(from_server,
                DirLookupResponse{.actor = req->actor, .owner = entry.owner,
                                  .token = entry.token, .request_id = req->request_id});
    return;
  }
  if (const auto* resp = std::get_if<DirLookupResponse>(&env.control)) {
    OnDirectoryAnswer(resp->actor, resp->owner, resp->token);
    return;
  }
  if (const auto* unreg = std::get_if<DirUnregister>(&env.control)) {
    directory_shard_.Unregister(unreg->actor, unreg->owner, unreg->token);
    return;
  }
  if (const auto* update = std::get_if<CacheUpdate>(&env.control)) {
    location_cache_.Put(update->actor, update->owner);
    return;
  }
  if (const auto* req = std::get_if<PartitionExchangeRequest>(&env.control)) {
    if (partition_agent_ != nullptr) {
      partition_agent_->OnExchangeRequest(from_server, *req);
    }
    return;
  }
  if (const auto* resp = std::get_if<PartitionExchangeResponse>(&env.control)) {
    if (partition_agent_ != nullptr) {
      partition_agent_->OnExchangeResponse(from_server, *resp);
    }
    return;
  }
}

// ---------------------------------------------------------------------------
// Call routing & activation
// ---------------------------------------------------------------------------

void Server::RouteCall(EnvelopePtr env) {
  const ActorId target = env->target;
  if (activations_.Contains(target)) {
    DeliverLocalCall(std::move(env));
    return;
  }
  const ServerId hint = location_cache_.Get(target);
  if (hint != kNoServer && hint != id_ && env->hops < config_.max_hops) {
    ForwardCall(std::move(env), hint);
    return;
  }
  if (hint != kNoServer && env->hops >= config_.max_hops) {
    // Too many stale-cache forwards: fall back to the authoritative path.
    location_cache_.Invalidate(target);
  }
  ResolveViaDirectory(std::move(env));
}

void Server::ResolveViaDirectory(EnvelopePtr env) {
  const ActorId target = env->target;
  ParkedCalls* parked = parked_calls_.Find(target);
  if (parked != nullptr) {
    parked->entries.push_back(std::move(env));
    return;  // lookup already in flight
  }
  parked = &parked_calls_.Insert(target);
  if (!parked_entry_pool_.empty()) {
    // Reuse a retired entry buffer (returned by the drain in
    // OnDirectoryAnswer) instead of growing a fresh vector per lookup.
    parked->entries = std::move(parked_entry_pool_.back());
    parked_entry_pool_.pop_back();
  }
  parked->entries.push_back(std::move(env));
  parked->since = sim_->now();
  LookUpInDirectory(target);
}

void Server::LookUpInDirectory(ActorId actor) {
  const ServerId home = DirectoryHomeOf(actor, cluster_->num_servers());
  const ServerId suggestion = SuggestPlacement(actor);
  if (home == id_) {
    const DirEntry entry = directory_shard_.LookupOrRegister(actor, suggestion);
    // Defer via the event queue: the parked list must not be consumed
    // synchronously inside the caller's frame.
    sim_->ScheduleAfter(0, [this, actor, entry] {
      OnDirectoryAnswer(actor, entry.owner, entry.token);
    });
    return;
  }
  SendControl(home, DirLookupRequest{.actor = actor, .suggested_owner = suggestion,
                                     .request_id = next_exchange_token_++});
}

ServerId Server::SuggestPlacement(ActorId actor) {
  // Opportunistic re-placement (§4.3): a cache hint — typically primed by a
  // migration — wins; a previously-activated actor re-activates on the
  // calling server; a brand-new actor follows the configured policy.
  const ServerId hinted = location_cache_.Peek(actor);
  if (hinted != kNoServer) {
    return hinted;
  }
  if (cluster_->HasActorStateForPlacement(actor, shard_)) {
    return id_;
  }
  switch (config_.placement) {
    case PlacementPolicy::kRandom:
      return static_cast<ServerId>(
          rng_.NextBounded(static_cast<uint64_t>(cluster_->num_servers())));
    case PlacementPolicy::kLocal:
      return id_;
    case PlacementPolicy::kConsistentHash:
      return static_cast<ServerId>(SplitMix64(actor ^ 0x5bd1e995) %
                                   static_cast<uint64_t>(cluster_->num_servers()));
  }
  return id_;
}

void Server::OnDirectoryAnswer(ActorId actor, ServerId owner, uint64_t token) {
  if (owner == id_) {
    if (const UnregisterFence* fence = pending_unregisters_.Find(actor)) {
      if (fence->token == token && sim_->now() < fence->expires) {
        // The answer names a registration we already unregistered; the
        // DirUnregister may still be in flight, so adopting it would hand
        // the activation a doomed directory entry. Leave the calls parked
        // and re-resolve once the unregister has landed (or the fence
        // expires, if the unregister was lost).
        if (parked_calls_.Contains(actor)) {
          sim_->ScheduleAfter(Millis(10), [this, actor] {
            if (parked_calls_.Contains(actor)) {
              LookUpInDirectory(actor);
            }
          });
        }
        return;
      }
      // Either a different token supersedes the fenced registration (it is
      // gone for good) or the fence expired (the unregister is no longer in
      // flight anywhere): adopting is safe.
      pending_unregisters_.Erase(actor);
    }
  }
  location_cache_.Put(actor, owner);
  ParkedCalls* parked = parked_calls_.Find(actor);
  if (parked == nullptr) {
    return;
  }
  // Move-then-erase-before-dispatch: the dispatch below can re-enter server
  // code that inserts into parked_calls_ (e.g. a delivered turn issuing a
  // sub-call to an unresolved actor, which parks it right back — possibly
  // under this same key). Draining a moved-out local and erasing the map
  // entry first keeps that re-entry safe; iterating the live map here would
  // be invalidated by it.
  std::vector<EnvelopePtr> envs = std::move(parked->entries);
  parked_calls_.Erase(actor);
  for (auto& env : envs) {
    if (owner == id_) {
      ActivateAndDeliver(std::move(env), token);
    } else {
      ForwardCall(std::move(env), owner);
    }
  }
  envs.clear();
  parked_entry_pool_.push_back(std::move(envs));
}

void Server::ActivateAndDeliver(EnvelopePtr env, uint64_t token) {
  const ActorId target = env->target;
  if (!activations_.Contains(target)) {
    CreateActivation(target, token);
  }
  DeliverLocalCall(std::move(env));
}

void Server::CreateActivation(ActorId actor, uint64_t token) {
  Activation& act = activations_.Insert(actor);
  // Reset every field but the mailbox, whose (empty) buffer the recycled
  // slot inherits from its previous occupant.
  act = Activation{.instance = cluster_->GetOrCreateActor(actor, shard_),
                   .dir_token = token,
                   .mailbox = std::move(act.mailbox)};
  activations_started_++;
}

void Server::ForwardCall(EnvelopePtr env, ServerId dest) {
  ACTOP_CHECK(dest != id_);
  env->hops++;
  SendToServer(dest, std::move(env));
}

void Server::DeliverLocalCall(EnvelopePtr env) {
  Activation* found = activations_.Find(env->target);
  ACTOP_CHECK(found != nullptr);
  Activation& act = *found;
  if (act.busy) {
    act.mailbox.push_back(std::move(env));
    return;
  }
  const ActorId target = env->target;  // read before the move below
  StartTurn(target, std::move(env));
}

void Server::StartTurn(ActorId actor, EnvelopePtr env) {
  Activation* found = activations_.Find(actor);
  ACTOP_CHECK(found != nullptr);
  Activation& act = *found;
  ACTOP_CHECK(!act.busy);
  act.busy = true;
  act.open_contexts++;

  const CostModel& costs = cluster_->CostsFor(actor);
  SimDuration compute = SampleCost(costs.ComputeFor(env->method));
  if (!env->via_network) {
    // Deep copy of LPC arguments (isolation between co-located actors).
    compute += SampleCost(config_.lpc_compute +
                          static_cast<SimDuration>(config_.lpc_ns_per_byte *
                                                   static_cast<double>(env->payload_bytes)));
  }
  if (act.activation_pending) {
    compute += config_.activation_compute;
    act.activation_pending = false;
  }

  StageEvent ev;
  ev.compute = compute;
  ev.blocking = costs.handler_blocking;
  const uint64_t epoch = crash_epoch_;
  // [this, env, epoch] is 24 bytes — the actor id is re-read from the
  // envelope so the capture stays inline in the event engine.
  ev.done = [this, env = std::move(env), epoch]() mutable {
    const ActorId actor = env->target;
    Activation* act = activations_.Find(actor);
    if (epoch != crash_epoch_ || act == nullptr) {
      return;  // server crashed while the turn was queued
    }
    // Hoist the instance pointer: OnCall may activate other actors, which
    // can grow the activation slab and invalidate `act`.
    Actor* instance = act->instance;
    ServerCallContext* ctx = AcquireContext(std::move(env));
    instance->OnCall(*ctx);
    const SimDuration extra = ctx->extra_compute_;
    if (ctx->replied_) {
      FreeContext(ctx);
    } else {
      // The actor will Reply from a sub-call continuation, which frees the
      // context; until then it stays out of the free list.
      ctx->retained_ = true;
    }
    if (extra > 0) {
      StageEvent extra_ev;
      extra_ev.compute = extra;
      extra_ev.done = [this, actor, epoch] {
        if (epoch == crash_epoch_) {
          FinishTurn(actor);
        }
      };
      stages_[kWorker]->Enqueue(std::move(extra_ev));
    } else {
      FinishTurn(actor);
    }
  };
  stages_[kWorker]->Enqueue(std::move(ev));
}

void Server::FinishTurn(ActorId actor) {
  Activation* found = activations_.Find(actor);
  if (found == nullptr) {
    return;
  }
  Activation& act = *found;
  ACTOP_CHECK(act.busy);
  act.busy = false;
  if (!act.mailbox.empty()) {
    EnvelopePtr next = std::move(act.mailbox.front());
    act.mailbox.pop_front();
    StartTurn(actor, std::move(next));
  }
}

// ---------------------------------------------------------------------------
// Sub-calls and replies
// ---------------------------------------------------------------------------

void Server::IssueCall(ActorId from_actor, ActorId target, MethodId method, uint64_t app_data,
                       uint32_t bytes, ResponseFn on_response) {
  auto env = MakeEnvelope();
  env->kind = MessageKind::kCall;
  env->target = target;
  env->source_actor = from_actor;
  env->method = method;
  env->payload_bytes = bytes;
  env->app_data = app_data;
  env->reply_to = node_;
  env->created_at = sim_->now();
  env->via_network = false;

  const bool local = activations_.Contains(target);
  ServerId dest_guess = local ? id_ : location_cache_.Peek(target);
  NoteAppSend(from_actor, target, dest_guess, !local);

  if (on_response != nullptr) {
    const uint32_t slot = AcquireCallSlot();
    ACTOP_CHECK(next_call_seq_ <= 0xFFFFFFFFu);  // the counter fills the high 32 bits
    const uint64_t seq = (next_call_seq_++ << 32) | slot;
    env->call_id = CallId{node_, seq};
    CallSlot& call = call_slots_[slot];
    call.seq = seq;
    call.issued_at = sim_->now();
    call.issuer = from_actor;
    call.on_response = std::move(on_response);
    call.remote = !local;
    call.prev = pending_tail_;
    call.next = kNilSlot;
    if (pending_tail_ != kNilSlot) {
      call_slots_[pending_tail_].next = slot;
    } else {
      pending_head_ = slot;
    }
    pending_tail_ = slot;  // appended to the pending FIFO
    if (Activation* act = activations_.Find(from_actor)) {
      act->pending_subcalls++;
    }
  } else {
    env->call_id = CallId{node_, 0};  // one-way: no response expected
  }
  RouteCall(std::move(env));
}

void Server::CompleteReply(ActorId from_actor, const Envelope& original_call, uint32_t bytes) {
  if (Activation* act = activations_.Find(from_actor)) {
    ACTOP_CHECK(act->open_contexts > 0);
    act->open_contexts--;
  }
  if (original_call.call_id.seq == 0) {
    return;  // one-way call: the reply is dropped
  }
  auto env = MakeEnvelope();
  env->kind = MessageKind::kResponse;
  env->call_id = original_call.call_id;
  env->target = original_call.source_actor;
  env->source_actor = from_actor;
  env->payload_bytes = bytes;
  env->created_at = original_call.created_at;
  env->reply_to = original_call.reply_to;

  const NodeId dest_node = original_call.reply_to;
  if (original_call.source_actor != kNoActor) {
    const ServerId dest_server = cluster_->ServerOfNode(dest_node);
    NoteAppSend(from_actor, original_call.source_actor, dest_server, dest_server != id_);
  }
  if (dest_node == node_) {
    // Local response: no serialization; handle directly.
    env->via_network = false;
    HandleResponse(std::move(env));
    return;
  }
  const ServerId dest_server = cluster_->ServerOfNode(dest_node);
  if (dest_server == kNoServer) {
    SendToClient(dest_node, std::move(env));
  } else {
    SendToServer(dest_server, std::move(env));
  }
}

void Server::HandleResponse(EnvelopePtr env) {
  ACTOP_CHECK(env->call_id.node == node_);
  const uint64_t seq = env->call_id.seq;
  ACTOP_CHECK(seq != 0);  // one-way calls get no response
  const auto slot = static_cast<uint32_t>(seq);
  if (slot >= call_slots_.size() || call_slots_[slot].seq != seq) {
    return;  // timed out, dropped during a crash, or a duplicate
  }
  UnlinkPendingCall(slot);
  CallSlot& call = call_slots_[slot];
  call.response = Response{.from = env->source_actor, .payload_bytes = env->payload_bytes};

  if (Activation* act = activations_.Find(call.issuer)) {
    ACTOP_CHECK(act->pending_subcalls > 0);
    act->pending_subcalls--;
  }
  metrics_->RecordActorCall(sim_->now() - call.issued_at, call.remote);

  // Response continuations run as their own worker-stage turns (they may
  // interleave with the issuer's queued calls, matching Orleans' handling of
  // an activation's own continuations). The continuation stays parked in its
  // call slot so the event captures only [this, slot] (inline); a rejected
  // event (queue shed under overload) frees the slot without running the
  // continuation.
  StageEvent ev;
  ev.compute = config_.response_handling_compute;
  ev.done = [this, slot] { RunCallSlot(slot); };
  ev.rejected = [this, slot] { FreeCallSlot(slot); };
  stages_[kWorker]->Enqueue(std::move(ev));
}

uint32_t Server::AcquireCallSlot() {
  if (call_free_ != kNilSlot) {
    const uint32_t slot = call_free_;
    call_free_ = call_slots_[slot].next;
    return slot;
  }
  // The slot index must fit the low 32 bits of a seq and stay below kNilSlot.
  ACTOP_CHECK(call_slots_.size() < kNilSlot);
  call_slots_.emplace_back();
  return static_cast<uint32_t>(call_slots_.size() - 1);
}

void Server::UnlinkPendingCall(uint32_t slot) {
  CallSlot& call = call_slots_[slot];
  if (call.prev != kNilSlot) {
    call_slots_[call.prev].next = call.next;
  } else {
    pending_head_ = call.next;
  }
  if (call.next != kNilSlot) {
    call_slots_[call.next].prev = call.prev;
  } else {
    pending_tail_ = call.prev;
  }
  call.seq = 0;
}

void Server::RunCallSlot(uint32_t slot) {
  // Move out and free the slot before invoking: the continuation may issue
  // calls that acquire new slots (growing the slab vector).
  ResponseFn fn = std::move(call_slots_[slot].on_response);
  const Response response = call_slots_[slot].response;
  FreeCallSlot(slot);
  fn(response);
}

void Server::FreeCallSlot(uint32_t slot) {
  CallSlot& call = call_slots_[slot];
  call.on_response = nullptr;
  call.next = call_free_;
  call_free_ = slot;
}

// ---------------------------------------------------------------------------
// Sending
// ---------------------------------------------------------------------------

void Server::SendToServer(ServerId dest, EnvelopePtr env) {
  ACTOP_CHECK(dest != id_);
  const uint32_t bytes = env->kind == MessageKind::kControl ? config_.control_bytes
                                                            : env->payload_bytes;
  StageEvent ev;
  ev.compute = SerializeCost(bytes);
  ev.done = [this, dest, bytes, env = std::move(env)]() mutable {
    cluster_->network().Send(node_, cluster_->NodeOfServer(dest), bytes, std::move(env));
  };
  stages_[kServerSender]->Enqueue(std::move(ev));
}

void Server::SendToClient(NodeId client_node, EnvelopePtr env) {
  const uint32_t bytes = env->payload_bytes;
  StageEvent ev;
  ev.compute = SerializeCost(bytes);
  ev.done = [this, client_node, bytes, env = std::move(env)]() mutable {
    cluster_->network().Send(node_, client_node, bytes, std::move(env));
  };
  stages_[kClientSender]->Enqueue(std::move(ev));
}

void Server::SendControl(ServerId dest, ControlPayload payload) {
  if (dest == id_) {
    // Local control operations skip the wire but still defer via the event
    // queue for re-entrancy safety.
    auto env = MakeEnvelope();
    env->kind = MessageKind::kControl;
    env->control = std::move(payload);
    sim_->ScheduleAfter(0, [this, env = std::move(env)] { HandleControl(*env, node_); });
    return;
  }
  auto env = MakeEnvelope();
  env->kind = MessageKind::kControl;
  env->payload_bytes = config_.control_bytes;
  env->control = std::move(payload);
  SendToServer(dest, std::move(env));
}

void Server::NoteAppSend(ActorId from, ActorId to, ServerId dest_server, bool remote) {
  if (from == kNoActor || to == kNoActor) {
    return;
  }
  if (remote) {
    remote_app_messages_++;
  } else {
    local_app_messages_++;
  }
  metrics_->CountAppMessage(remote);
  if (partition_agent_ != nullptr) {
    partition_agent_->ObserveEdge(from, to, dest_server);
  }
}

// ---------------------------------------------------------------------------
// Migration & failures
// ---------------------------------------------------------------------------

std::vector<ActorId> Server::ActiveActors() const {
  std::vector<ActorId> out;
  out.reserve(activations_.size());
  activations_.ForEach([&out](ActorId actor, const Activation&) { out.push_back(actor); });
  return out;
}

bool Server::IsMigratable(ActorId actor) const {
  const Activation* act = activations_.Find(actor);
  if (act == nullptr) {
    return false;
  }
  return !act->busy && act->mailbox.empty() && act->open_contexts == 0 &&
         act->pending_subcalls == 0;
}

void Server::DropActivationAndUnregister(ActorId actor) {
  Activation* act = activations_.Find(actor);
  ACTOP_CHECK(act != nullptr);
  const uint64_t token = act->dir_token;
  ACTOP_CHECK(act->mailbox.empty());  // its buffer stays with the slot
  activations_.Erase(actor);
  const ServerId home = DirectoryHomeOf(actor, cluster_->num_servers());
  if (home == id_) {
    directory_shard_.Unregister(actor, id_, token);
    return;
  }
  SendControl(home, DirUnregister{.actor = actor, .owner = id_, .token = token});
  // Until that message lands, the shard still advertises the dead
  // registration; fence it so a racing lookup answer cannot re-adopt it.
  const UnregisterFence fence{token, sim_->now() + config_.call_timeout};
  if (UnregisterFence* held = pending_unregisters_.Find(actor)) {
    *held = fence;
  } else {
    pending_unregisters_.Insert(actor) = fence;
  }
}

bool Server::MigrateActor(ActorId actor, ServerId dest) {
  if (dest == id_ || !IsMigratable(actor)) {
    return false;
  }
  migrations_out_++;
  metrics_->CountMigration();
  // Opportunistic migration (§4.3): drop the directory entry and prime the
  // location caches of this server and the destination. The next call to the
  // actor re-activates it at `dest`.
  DropActivationAndUnregister(actor);
  location_cache_.Put(actor, dest);
  SendControl(dest, CacheUpdate{.actor = actor, .owner = dest});
  return true;
}

bool Server::DeactivateActor(ActorId actor) {
  if (!IsMigratable(actor)) {
    return false;
  }
  DropActivationAndUnregister(actor);
  location_cache_.Invalidate(actor);
  return true;
}

void Server::ForceActivateForTest(ActorId actor) {
  if (!activations_.Contains(actor)) {
    CreateActivation(actor, 0);
  }
}

void Server::Crash() {
  crash_epoch_++;
  activations_.Clear();
  parked_calls_.Clear();
  // Drop every pending call. Slots whose continuation turn is already queued
  // are not pending (no seq) and stay parked until that turn runs.
  while (pending_head_ != kNilSlot) {
    const uint32_t slot = pending_head_;
    UnlinkPendingCall(slot);
    FreeCallSlot(slot);
  }
  // Retained contexts are not freed: queued continuations may still hold
  // them. The epoch bump above makes them inert.
  pending_unregisters_.Clear();
  location_cache_.Clear();
}

ServerCallContext* Server::AcquireContext(EnvelopePtr call) {
  if (free_contexts_.empty()) {
    contexts_.push_back(std::make_unique<ServerCallContext>(this, std::move(call), crash_epoch_));
    return contexts_.back().get();
  }
  ServerCallContext* ctx = free_contexts_.back();
  free_contexts_.pop_back();
  ASAN_UNPOISON_MEMORY_REGION(ctx, sizeof(ServerCallContext));
  *ctx = ServerCallContext(this, std::move(call), crash_epoch_);
  return ctx;
}

void Server::FreeContext(ServerCallContext* ctx) {
  ctx->call_.reset();  // the call's envelope goes back to its pool now
  ASAN_POISON_MEMORY_REGION(ctx, sizeof(ServerCallContext));
  free_contexts_.push_back(ctx);
}

// ---------------------------------------------------------------------------
// Timeouts
// ---------------------------------------------------------------------------

void Server::SweepTimeouts() {
  const SimTime now = sim_->now();
  while (pending_head_ != kNilSlot &&
         call_slots_[pending_head_].issued_at + config_.call_timeout <= now) {
    FailPendingCall(pending_head_);
  }
  pending_unregisters_.EraseIf(
      [now](ActorId, const UnregisterFence& fence) { return fence.expires <= now; });
  // Retry directory lookups whose answer was lost (e.g. dropped by a
  // saturated receive queue or a crashed home shard), in the slot order of
  // parked_calls_. Collect-then-act: the retry actions below reach back into
  // routing code (SendControl, the deferred directory answer) which may
  // insert into parked_calls_, so the slab must not be under iteration while
  // they run. The scratch vector is reused across sweeps.
  sweep_retry_scratch_.clear();
  parked_calls_.ForEach([&](ActorId actor, ParkedCalls& parked) {
    if (now - parked.since >= config_.call_timeout / 3) {
      parked.since = now;
      sweep_retry_scratch_.push_back(actor);
    }
  });
  for (const ActorId actor : sweep_retry_scratch_) {
    LookUpInDirectory(actor);
  }
}

void Server::FailPendingCall(uint32_t slot) {
  UnlinkPendingCall(slot);
  CallSlot& call = call_slots_[slot];
  Activation* act = activations_.Find(call.issuer);
  if (act != nullptr && act->pending_subcalls > 0) {
    act->pending_subcalls--;
  }
  call.response = Response{.failed = true};
  sim_->ScheduleAfter(0, [this, slot] { RunCallSlot(slot); });
}

}  // namespace actop
