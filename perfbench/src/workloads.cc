#include "perfbench/src/workloads.h"

#include "src/common/check.h"

namespace perfbench {

using actop::Seconds;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // The paper's headline configuration, and the only workload where the
      // partition agent and the thread controller do real work. The warm-up
      // outlasts the first generation of games (48-72 s), after which
      // latency settles.
      {
          .name = "halo_actop",
          .halo = true,
          .servers = 8,
          .population = 10000,
          .rate = 4500.0,
          .partitioning = true,
          .thread_optimization = true,
          .shards = 1,
          .warmup = Seconds(60),
          .measure_per_wall_s = 6.0,
      },
      // Random placement over 64 servers sends ~98% of messages remote, so
      // network, directory and cache reads dominate; the only workload on
      // the sharded engine. At 28K req/s (~77% modelled CPU) one seed in five
      // had a hot spot that moved p999 by a quarter; 24K (~65%) does not.
      // 50K players, not 200K: the remote fraction and the modelled load do
      // not depend on the population, and 200K players took the traced run
      // past 512 MiB of address space (~390 MiB resident), where an
      // allocation limit aborts it; 50K peak at ~310 MiB (~185 MiB resident).
      {
          .name = "halo_wide",
          .halo = true,
          .servers = 64,
          .population = 50000,
          .rate = 24000.0,
          .shards = 2,
          .warmup = Seconds(5),
          .measure_per_wall_s = 2.0,
          .step = actop::Millis(250),
      },
      // No fan-out over a large key space: directory re-registration,
      // activation and the cache-miss path dominate (actor-layer writes).
      // The bursts exercise stage queues and the open-loop driver.
      {
          .name = "iot_churn",
          .halo = false,
          .servers = 8,
          .population = 200000,
          .rate = 8000.0,
          .warmup = Seconds(8),
          .measure_per_wall_s = 14.0,
          .storms = 3,
          .storm_requests = 15000,
      },
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

namespace {

actop::ClusterConfig MakeClusterConfig(const WorkloadSpec& spec, uint64_t seed) {
  actop::ClusterConfig cfg;
  cfg.num_servers = spec.servers;
  cfg.seed = seed;
  cfg.enable_partitioning = spec.partitioning;
  // The scaled exchange cadence of the repository's Halo experiments.
  cfg.partition.exchange_period = Seconds(1);
  cfg.partition.exchange_min_gap = Seconds(1);
  cfg.partition.max_peers_per_round = 4;
  cfg.partition.pairwise.candidate_set_size = 256;
  cfg.partition.pairwise.balance_delta = 200;
  cfg.partition.edge_sample_capacity = 16384;
  cfg.partition.edge_decay_period = Seconds(10);
  cfg.partition.use_arena_planner = true;
  cfg.enable_thread_optimization = spec.thread_optimization;
  cfg.thread_controller.period = Seconds(1);
  cfg.thread_controller.eta = 100e-6;
  return cfg;
}

actop::ShardedEngineConfig MakeEngineConfig(const actop::ClusterConfig& cfg, int shards) {
  actop::ShardedEngineConfig ec;
  ec.shards = shards;
  ec.lookahead = cfg.network.one_way_latency;
  return ec;
}

}  // namespace

Instance::Instance(const WorkloadSpec& spec, uint64_t seed, int shards, SimDuration measure)
    : spec_(spec),
      measure_(measure),
      engine_(MakeEngineConfig(MakeClusterConfig(spec, seed), shards)),
      schedule_(spec.rate) {
  ACTOP_CHECK(shards >= 1 && shards <= spec.servers);
  cluster_ = std::make_unique<actop::Cluster>(&engine_, MakeClusterConfig(spec, seed));
  if (spec.halo) {
    actop::HaloWorkloadConfig wl;
    wl.target_players = spec.population;
    wl.idle_pool_target = spec.population / 100;  // the paper's 1% matchmaking pool
    wl.request_rate = spec.rate;                  // unused: the open-loop driver issues
    wl.request_bytes = 800;
    wl.status_bytes = 1600;
    wl.update_bytes = 1200;
    wl.client_timeout = kClientTimeout;
    wl.external_clients = true;
    wl.seed = seed ^ 0x517cc1b7ULL;
    halo_ = std::make_unique<actop::HaloWorkload>(cluster_.get(), wl);
  } else {
    actop::HeartbeatWorkloadConfig wl;
    wl.num_monitors = spec.population;
    wl.request_rate = spec.rate;  // unused: the open-loop driver issues
    wl.request_bytes = 160;
    wl.handler_compute = actop::Micros(100);
    wl.client_timeout = kClientTimeout;
    wl.external_clients = true;
    wl.seed = seed ^ 0x7777ULL;
    fleet_ = std::make_unique<actop::HeartbeatWorkload>(cluster_.get(), wl);
  }
  driver_ = std::make_unique<actop::OpenLoopDriver>(&engine_.sim(), &pool(), &schedule_,
                                                    seed ^ 0x9e3779b97f4a7c15ULL);
}

Instance::~Instance() = default;

actop::ClientPool& Instance::pool() { return halo_ ? halo_->clients() : fleet_->clients(); }

void Instance::StartWorkload() {
  if (halo_) {
    halo_->Start();
  } else {
    fleet_->Start();
  }
}

void Instance::StartOptimizers() { cluster_->StartOptimizers(); }

void Instance::StartDriver() {
  // Storms at 20%, 50% and 80% of the measure window: every directory shard
  // churns its idle registrations, then the burst arrives at the same
  // instant. The churn is scheduled before the driver starts, so it runs
  // first; in parallel mode it rides the coordinator rail.
  for (int i = 0; i < spec_.storms; i++) {
    const SimTime at = measure_start() + measure_ / 5 + (measure_ * 3 / 10) * i;
    auto churn_all = [this] {
      for (int s = 0; s < cluster_->num_servers(); s++) {
        churned_ += static_cast<uint64_t>(cluster_->ChurnDirectoryShard(s));
      }
    };
    if (engine_.parallel()) {
      engine_.ScheduleRailAt(at, churn_all);
    } else {
      engine_.sim().ScheduleAt(at, churn_all);
    }
    schedule_.AddBurst(at, spec_.storm_requests);
  }
  driver_->Start();
}

void Instance::StopTraffic() {
  driver_->Stop();
  if (halo_) {
    halo_->Stop();
  } else {
    fleet_->Stop();
  }
  for (int s = 0; s < cluster_->num_servers(); s++) {
    if (actop::PartitionAgent* agent = cluster_->partition_agent(s)) {
      agent->Stop();
    }
  }
}

}  // namespace perfbench
