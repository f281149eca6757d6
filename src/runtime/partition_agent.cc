#include "src/runtime/partition_agent.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/core/csr_graph.h"
#include "src/core/repartition_arena.h"
#include "src/runtime/cluster.h"
#include "src/runtime/server.h"

namespace actop {

PartitionAgent::PartitionAgent(Simulation* sim, Cluster* cluster, Server* server,
                               PartitionAgentConfig config)
    : sim_(sim),
      cluster_(cluster),
      server_(server),
      config_(config),
      edges_(config.edge_sample_capacity),
      slot_fresh_(config.edge_sample_capacity, false) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(cluster != nullptr);
  ACTOP_CHECK(server != nullptr);
  ACTOP_CHECK(config.use_arena_planner);  // the CSR arena is the only planner
}

void PartitionAgent::Start() {
  ACTOP_CHECK(round_timer_ == 0);
  // Randomly phase-shift the first round so the servers do not initiate
  // exchanges in lock step.
  const SimDuration phase = static_cast<SimDuration>(
      cluster_->rng().NextBounded(static_cast<uint64_t>(config_.exchange_period)));
  sim_->ScheduleAfter(phase, [this] {
    if (round_timer_ != 0) {
      return;
    }
    round_timer_ = sim_->SchedulePeriodic(config_.exchange_period, [this] { RunRound(); });
  });
  decay_timer_ = sim_->SchedulePeriodic(config_.edge_decay_period, [this] {
    // Idle servers (nothing sampled) skip the decay pass entirely. The only
    // state this leaves un-halved is the sketch's total-observed counter,
    // which nothing downstream reads when the sketch is empty.
    FlushObservations();
    if (edges_.size() != 0) {
      edges_.Decay();
    }
  });
}

void PartitionAgent::Stop() {
  if (round_timer_ != 0) {
    sim_->CancelPeriodic(round_timer_);
    round_timer_ = 0;
  }
  if (decay_timer_ != 0) {
    sim_->CancelPeriodic(decay_timer_);
    decay_timer_ = 0;
  }
}

void PartitionAgent::ObserveEdge(ActorId local, ActorId peer, ServerId dest) {
  pending_[num_pending_++] = PendingEdge{local, peer, dest};
  if (num_pending_ == kObserveBatch) {
    FlushObservations();
  }
}

void PartitionAgent::FlushObservations() {
  // Two-stage prefetch: the hash slot 2 * kAhead entries out, then the
  // chain node it names kAhead entries out, by which time the slot is cached.
  constexpr size_t kAhead = 4;
  const ServerId self = server_->id();
  const size_t n = num_pending_;
  for (size_t i = 0; i < n; i++) {
    if (i + 2 * kAhead < n) {
      const PendingEdge& ahead = pending_[i + 2 * kAhead];
      edges_.PrefetchIndex(EdgeKey{ahead.local, ahead.peer});
      last_seen_.Prefetch(ahead.peer);
    }
    if (i + kAhead < n) {
      const PendingEdge& ahead = pending_[i + kAhead];
      edges_.PrefetchNode(EdgeKey{ahead.local, ahead.peer});
    }
    const PendingEdge& e = pending_[i];
    const int32_t slot = edges_.Observe(EdgeKey{e.local, e.peer});
    if (slot != SpaceSaving<EdgeKey, EdgeKeyHash>::kNoSlot && !slot_fresh_[slot]) {
      slot_fresh_[slot] = true;
      fresh_slots_.push_back(slot);
    }
    if (e.dest != kNoServer && e.dest != self) {
      last_seen_.Insert(e.peer, e.dest);
    } else if (e.dest == self) {
      last_seen_.Erase(e.peer);
    }
  }
  num_pending_ = 0;
}

PairwiseConfig PartitionAgent::CurrentPairwiseConfig() const {
  PairwiseConfig cfg = config_.pairwise;
  cfg.target_size = static_cast<double>(cluster_->total_activations()) /
                    static_cast<double>(cluster_->num_servers());
  return cfg;
}

void PartitionAgent::SyncPlanSlots() {
  auto before = [this](int32_t a, int32_t b) {
    const EdgeKey& ka = edges_.SlotKey(a);
    const EdgeKey& kb = edges_.SlotKey(b);
    return ka.local != kb.local ? ka.local < kb.local : ka.peer < kb.peer;
  };
  // A slot changes key only through Observe, which hands it back fresh, or
  // loses it to Decay, which frees it. Dropping fresh and freed slots in
  // place therefore leaves exactly the slots still holding their key, still
  // sorted.
  std::erase_if(plan_slots_,
                [this](int32_t slot) { return slot_fresh_[slot] || !edges_.SlotLive(slot); });
  for (const int32_t slot : fresh_slots_) {
    slot_fresh_[slot] = false;
  }
  std::erase_if(fresh_slots_, [this](int32_t slot) { return !edges_.SlotLive(slot); });
  if (fresh_slots_.empty()) {
    return;
  }
  std::sort(fresh_slots_.begin(), fresh_slots_.end(), before);
  plan_merge_.resize(plan_slots_.size() + fresh_slots_.size());
  std::merge(plan_slots_.begin(), plan_slots_.end(), fresh_slots_.begin(), fresh_slots_.end(),
             plan_merge_.begin(), before);
  plan_slots_.swap(plan_merge_);
  fresh_slots_.clear();
}

void PartitionAgent::RefreshPlanGraph() {
  FlushObservations();
  SyncPlanSlots();
  // plan_slots_ is sorted by (local, peer) with unique pairs, so the edges
  // arrive in the strictly increasing order RebuildFromEdgeList requires.
  plan_edges_.clear();
  ActorId local = kNoActor;  // never a sampled sender (Server::NoteAppSend)
  bool local_active = false;
  for (const int32_t slot : plan_slots_) {
    const EdgeKey& key = edges_.SlotKey(slot);
    if (key.local != local) {
      local = key.local;
      local_active = server_->IsActive(local);
    }
    // Locals migrated away or deactivated are skipped; decay reclaims them.
    if (local_active) {
      plan_edges_.push_back(
          CsrEdge{local, key.peer, static_cast<double>(edges_.SlotCount(slot))});
    }
  }
  plan_graph_.RebuildFromEdgeList(plan_edges_);

  const auto unknown = static_cast<ServerId>(cluster_->num_servers());
  plan_assignment_.resize(static_cast<size_t>(plan_graph_.num_vertices()));
  for (int32_t i = 0; i < plan_graph_.num_vertices(); i++) {
    const VertexId v = plan_graph_.IdOf(i);
    ServerId loc;
    if (server_->IsActive(v)) {
      loc = server_->id();
    } else {
      loc = server_->location_cache().Peek(v);
      if (loc == kNoServer) {
        if (const ServerId* seen = last_seen_.Find(v)) {
          loc = *seen;
        }
      }
      if (loc == kNoServer) {
        loc = unknown;
      }
    }
    plan_assignment_[static_cast<size_t>(i)] = loc;
  }
  if (plan_arena_ == nullptr) {
    plan_arena_ = std::make_unique<RepartitionArena>(
        &plan_graph_, cluster_->num_servers() + 1, CurrentPairwiseConfig(), plan_assignment_);
  } else {
    plan_arena_->ResetPlanning(CurrentPairwiseConfig(), plan_assignment_);
  }
}

void PartitionAgent::RunRound() {
  if (exchange_in_flight_) {
    // An exchange request or its response can be shed by an overloaded
    // receive queue; give up on it after a few periods so the agent cannot
    // wedge permanently.
    if (sim_->now() - exchange_sent_at_ < 3 * config_.exchange_period) {
      return;
    }
    exchange_in_flight_ = false;
  }
  FlushObservations();
  rounds_initiated_++;
  if (edges_.size() == 0) {
    // Nothing sampled: the plan graph would be empty and the plan set with
    // it, so skip the refresh. Observably identical to running it
    // (pending_plans_ ends up empty either way, and the worker-stage charge
    // below was already skipped for empty plan sets).
    pending_plans_.clear();
    next_plan_ = 0;
    return;
  }
  RefreshPlanGraph();
  plan_arena_->ExportPeerPlans(server_->id(), &pending_plans_,
                               static_cast<ServerId>(cluster_->num_servers()));
  if (static_cast<int>(pending_plans_.size()) > config_.max_peers_per_round) {
    pending_plans_.resize(static_cast<size_t>(config_.max_peers_per_round));
  }
  next_plan_ = 0;
  if (pending_plans_.empty()) {
    return;
  }
  // Charge the candidate-set computation (O(edges) scan, §4.2's complexity
  // analysis) to the worker stage, then contact the best peer.
  constexpr SimDuration kPlanComputePerEdge = Nanos(120);
  StageEvent ev;
  ev.compute = kPlanComputePerEdge * static_cast<SimDuration>(edges_.size());
  ev.done = [this] { TryNextPeer(); };
  server_->stage(Server::kWorker).Enqueue(std::move(ev));
}

void PartitionAgent::TryNextPeer() {
  if (next_plan_ >= pending_plans_.size()) {
    exchange_in_flight_ = false;
    return;
  }
  PeerPlan& plan = pending_plans_[next_plan_++];
  exchange_in_flight_ = true;
  exchange_sent_at_ = sim_->now();
  PartitionExchangeRequest request;
  request.from_num_vertices = server_->num_activations();
  // Each plan is tried at most once per round, so the candidates move onto
  // the wire instead of being copied (a deep copy per try: one vector per
  // candidate's edge list).
  request.candidates = std::move(plan.candidates);
  request.exchange_id = next_exchange_id_++;
  server_->SendControl(plan.peer, std::move(request));
}

void PartitionAgent::OnExchangeRequest(ServerId from, const PartitionExchangeRequest& request) {
  PartitionExchangeResponse response;
  response.exchange_id = request.exchange_id;
  if (sim_->now() - last_exchange_ < config_.exchange_min_gap) {
    response.rejected = true;
    server_->SendControl(from, std::move(response));
    return;
  }
  // The wire candidates are read in place and every planning and output
  // buffer is reused; only the response payload allocates.
  RefreshPlanGraph();
  plan_arena_->DecideOffer(server_->id(), from, request.candidates,
                           static_cast<double>(request.from_num_vertices),
                           static_cast<double>(server_->num_activations()),
                           static_cast<ServerId>(cluster_->num_servers()), &accepted_scratch_,
                           &counter_scratch_);

  // Transfer T0 to the requester; vertices busy with in-flight calls are
  // skipped this round (they will surface again if the edge stays heavy).
  int migrated = 0;
  for (VertexId v : counter_scratch_) {
    if (server_->MigrateActor(v, from)) {
      migrated++;
    }
  }
  response.accepted.assign(accepted_scratch_.begin(), accepted_scratch_.end());
  if (!response.accepted.empty() || migrated > 0) {
    last_exchange_ = sim_->now();
  }
  server_->SendControl(from, std::move(response));
}

void PartitionAgent::OnExchangeResponse(ServerId from, const PartitionExchangeResponse& response) {
  exchange_in_flight_ = false;
  if (response.rejected) {
    exchanges_rejected_++;
    TryNextPeer();
    return;
  }
  exchanges_accepted_++;
  if (!response.accepted.empty()) {
    last_exchange_ = sim_->now();
    MigrateAccepted(from, response.accepted);
  }
  pending_plans_.clear();
  next_plan_ = 0;
}

void PartitionAgent::MigrateAccepted(ServerId dest, const std::vector<VertexId>& vertices) {
  for (VertexId v : vertices) {
    server_->MigrateActor(v, dest);
  }
}

}  // namespace actop
