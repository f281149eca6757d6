#include "src/runtime/cluster.h"

#include <utility>

#include "src/common/check.h"

namespace actop {

Cluster::Cluster(ShardedEngine* engine, ClusterConfig config)
    : engine_(engine), config_(std::move(config)), rng_(config_.seed) {
  ACTOP_CHECK(engine != nullptr);
  ACTOP_CHECK(config_.num_servers >= 1);
  // Each shard needs at least one server to own.
  ACTOP_CHECK(engine_->shards() <= config_.num_servers);
  network_ = std::make_unique<Network>(engine_, config_.network);

  const int num_shards = shards();
  metrics_.reserve(static_cast<size_t>(num_shards));
  state_seen_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; s++) {
    metrics_.push_back(std::make_unique<ClusterMetrics>());
    state_seen_.push_back(std::make_unique<FlatHashMap<ActorId, uint8_t>>());
  }

  for (int i = 0; i < config_.num_servers; i++) {
    const int shard = ShardOfServer(static_cast<ServerId>(i));
    auto server = std::make_unique<Server>(&engine_->shard(shard), this, static_cast<ServerId>(i),
                                           config_.server, rng_.NextU64());
    Server* raw = server.get();
    const NodeId node = network_->AddNode(
        [raw](NodeId from, uint32_t bytes, EnvelopePtr env) {
          raw->OnNetworkMessage(from, bytes, std::move(env));
        },
        shard);
    ACTOP_CHECK(node == static_cast<NodeId>(i));
    server->set_node(node);
    server->set_shard(shard);
    server->set_metrics(metrics_[static_cast<size_t>(shard)].get());
    servers_.push_back(std::move(server));
  }

  if (config_.enable_partitioning) {
    for (int i = 0; i < config_.num_servers; i++) {
      Server* server = servers_[static_cast<size_t>(i)].get();
      Simulation* shard_sim = &engine_->shard(ShardOfServer(static_cast<ServerId>(i)));
      agents_.push_back(
          std::make_unique<PartitionAgent>(shard_sim, this, server, config_.partition));
      server->set_partition_agent(agents_.back().get());
    }
  }

  if (config_.enable_thread_optimization) {
    for (int i = 0; i < config_.num_servers; i++) {
      Simulation* shard_sim = &engine_->shard(ShardOfServer(static_cast<ServerId>(i)));
      ModelControllerConfig cc = config_.thread_controller;
      cc.no_blocking.assign(static_cast<size_t>(Server::kNumStages), true);
      thread_controllers_.push_back(std::make_unique<ModelThreadController>(
          shard_sim, servers_[static_cast<size_t>(i)].get(), cc));
    }
  }

  if (parallel()) {
    engine_->set_barrier_hook([this] { SnapshotGlobals(); });
  }
}

Cluster::~Cluster() {
  if (parallel()) {
    engine_->set_barrier_hook(nullptr);
  }
}

void Cluster::RegisterActorType(ActorType type, ActorFactory factory,
                                SimDuration handler_compute) {
  ACTOP_CHECK(factory != nullptr);
  const bool inserted =
      actor_types_.emplace(type, ActorTypeInfo{std::move(factory), handler_compute}).second;
  ACTOP_CHECK(inserted);
}

void Cluster::StartOptimizers() {
  for (auto& agent : agents_) {
    agent->Start();
  }
  for (auto& controller : thread_controllers_) {
    controller->Start();
  }
}

PartitionAgent* Cluster::partition_agent(int i) {
  if (agents_.empty()) {
    return nullptr;
  }
  return agents_[static_cast<size_t>(i)].get();
}

NodeId Cluster::NodeOfServer(ServerId id) const {
  ACTOP_CHECK(id >= 0 && id < static_cast<ServerId>(servers_.size()));
  return static_cast<NodeId>(id);
}

ServerId Cluster::ServerOfNode(NodeId node) const {
  if (node >= 0 && node < static_cast<NodeId>(servers_.size())) {
    return static_cast<ServerId>(node);
  }
  return kNoServer;
}

NodeId Cluster::AddClientNode(Network::DeliverFn deliver) {
  return network_->AddNode(std::move(deliver), 0);
}

Actor* Cluster::GetOrCreateActor(ActorId actor, int shard) {
  // Activation creation can race across shards in parallel mode; one shard
  // runs lock-free.
  std::unique_lock<std::mutex> lock(state_mu_, std::defer_lock);
  if (parallel()) {
    state_seen_[static_cast<size_t>(shard)]->Insert(actor, 1);
    lock.lock();
  }
  if (auto* slot = state_store_.Find(actor)) {
    return slot->get();
  }
  const ActorType type = ActorTypeOf(actor);
  auto type_it = actor_types_.find(type);
  ACTOP_CHECK(type_it != actor_types_.end());
  auto instance = type_it->second.factory(actor);
  ACTOP_CHECK(instance != nullptr);
  Actor* raw = instance.get();
  state_store_.Insert(actor, std::move(instance));
  return raw;
}

bool Cluster::HasActorState(ActorId actor) const {
  std::unique_lock<std::mutex> lock(state_mu_, std::defer_lock);
  if (parallel()) {
    lock.lock();
  }
  return state_store_.Find(actor) != nullptr;
}

bool Cluster::HasActorStateForPlacement(ActorId actor, int shard) const {
  if (parallel()) {
    // Answer from the shard's own history: whether another shard created
    // this actor earlier in the same window must not influence (or
    // un-determinize) this shard's placement choice.
    return state_seen_[static_cast<size_t>(shard)]->Find(actor) != nullptr;
  }
  return state_store_.Find(actor) != nullptr;
}

SimDuration Cluster::HandlerCompute(ActorId actor) const {
  auto it = actor_types_.find(ActorTypeOf(actor));
  ACTOP_CHECK(it != actor_types_.end());
  return it->second.handler_compute;
}

int64_t Cluster::total_activations() const {
  if (parallel()) {
    return activation_snapshot_;
  }
  int64_t total = 0;
  for (const auto& server : servers_) {
    total += server->num_activations();
  }
  return total;
}

void Cluster::SnapshotGlobals() {
  int64_t total = 0;
  for (const auto& server : servers_) {
    total += server->num_activations();
  }
  activation_snapshot_ = total;
}

ClusterMetrics::Window Cluster::TakeMetricsWindow() {
  ClusterMetrics::Window merged = metrics_[0]->TakeWindow();
  for (size_t s = 1; s < metrics_.size(); s++) {
    const ClusterMetrics::Window w = metrics_[s]->TakeWindow();
    merged.remote_msgs += w.remote_msgs;
    merged.local_msgs += w.local_msgs;
    merged.migrations += w.migrations;
  }
  return merged;
}

void Cluster::ResetMetricsLatencies() {
  for (auto& m : metrics_) {
    m->ResetLatencies();
  }
}

Histogram Cluster::MergedActorCallLatency() const {
  Histogram merged;
  for (const auto& m : metrics_) {
    merged.Merge(m->actor_call_latency());
  }
  return merged;
}

Histogram Cluster::MergedRemoteActorCallLatency() const {
  Histogram merged;
  for (const auto& m : metrics_) {
    merged.Merge(m->remote_actor_call_latency());
  }
  return merged;
}

double Cluster::RemoteMessageFraction() const {
  uint64_t remote = 0;
  uint64_t local = 0;
  for (const auto& server : servers_) {
    remote += server->remote_app_messages();
    local += server->local_app_messages();
  }
  const uint64_t total = remote + local;
  return total == 0 ? 0.0 : static_cast<double>(remote) / static_cast<double>(total);
}

uint64_t Cluster::total_migrations() const {
  uint64_t total = 0;
  for (const auto& server : servers_) {
    total += server->migrations_out();
  }
  return total;
}

void Cluster::CrashServer(ServerId id) {
  ACTOP_CHECK(id >= 0 && id < static_cast<ServerId>(servers_.size()));
  servers_[static_cast<size_t>(id)]->Crash();
  // Membership change: every directory shard evicts entries owned by the
  // crashed server, and caches drop stale pointers to it.
  for (auto& server : servers_) {
    server->directory_shard().EvictServer(id);
    if (server->id() != id) {
      server->location_cache().InvalidateServer(id);
    }
  }
}

int Cluster::ChurnDirectoryShard(ServerId id) {
  ACTOP_CHECK(id >= 0 && id < static_cast<ServerId>(servers_.size()));
  // Copy the entries first: DeactivateActor mutates the shard when the owner
  // is also the home. ForEach walks in slot-index order, so the churn order
  // replays deterministically for a fixed seed.
  churn_scratch_.clear();
  servers_[static_cast<size_t>(id)]->directory_shard().ForEach(
      [this](ActorId actor, const DirEntry& entry) {
        churn_scratch_.push_back({actor, entry.owner});
      });
  int churned = 0;
  for (const auto& [actor, owner] : churn_scratch_) {
    if (owner >= 0 && owner < static_cast<ServerId>(servers_.size()) &&
        servers_[static_cast<size_t>(owner)]->DeactivateActor(actor)) {
      churned++;
    }
  }
  return churned;
}

}  // namespace actop
