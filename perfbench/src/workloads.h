// The benchmark's workloads, built only from the program's public
// constructors: ShardedEngine, Cluster, HaloWorkload / HeartbeatWorkload,
// ClientPool (owned by the workload), OpenLoopDriver and RateSchedule.
//
// Every workload is open-loop: arrivals are Poisson in simulated time, so
// the generator cannot fall behind on a slow host. A run is warm-up, then a
// measure window, then a drain with arrivals stopped.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/load/open_loop.h"
#include "src/load/rate_schedule.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/workload/halo_presence.h"
#include "src/workload/heartbeat.h"

namespace perfbench {

using actop::SimDuration;
using actop::SimTime;

struct WorkloadSpec {
  const char* name = "";
  bool halo = true;  // Halo Presence; false = heartbeat devices
  int servers = 8;
  int population = 10000;  // players or devices
  double rate = 4500.0;    // open-loop client requests per simulated second
  bool partitioning = false;
  bool thread_optimization = false;
  int shards = 1;  // recorded engine shard count K
  SimDuration warmup = actop::Seconds(30);
  // Simulated seconds a measure window covers per requested wall second of
  // measuring (calibrated on a 4-core x86-64 host). `--seconds` always maps
  // to the same simulated work, so simulated metrics repeat exactly.
  double measure_per_wall_s = 4.0;
  // RunUntil granularity; identical in timed and traced runs, because the
  // sharded engine's window cuts depend on the deadlines it is given.
  SimDuration step = actop::Millis(500);
  int storms = 0;               // directory churn + synchronized burst events
  uint64_t storm_requests = 0;  // requests in each burst
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Client timeout; the drain outlives it plus the 1 s timeout sweep, so every
// request resolves to completed or timed out.
inline constexpr SimDuration kClientTimeout = actop::Seconds(5);
inline constexpr SimDuration kDrain = kClientTimeout + actop::Seconds(2);

// One built workload. The phases are separate calls so the caller can time
// (and trace) each call into the program on its own.
class Instance {
 public:
  // Builds the engine, the cluster and the workload objects.
  Instance(const WorkloadSpec& spec, uint64_t seed, int shards, SimDuration measure);
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  void StartWorkload();    // HaloWorkload/HeartbeatWorkload::Start
  void StartOptimizers();  // Cluster::StartOptimizers
  void StartDriver();      // schedules storms, starts the open-loop driver
  // Stops arrivals, matchmaking and the partition agents before the drain.
  void StopTraffic();

  const WorkloadSpec& spec() const { return spec_; }
  SimTime measure_start() const { return spec_.warmup; }
  SimTime measure_end() const { return spec_.warmup + measure_; }
  SimTime drain_end() const { return measure_end() + kDrain; }

  actop::ShardedEngine& engine() { return engine_; }
  actop::Cluster& cluster() { return *cluster_; }
  actop::ClientPool& pool();
  const actop::OpenLoopDriver& driver() const { return *driver_; }
  uint64_t games_started() const { return halo_ ? halo_->games_started() : 0; }
  uint64_t churned() const { return churned_; }

 private:
  const WorkloadSpec& spec_;
  SimDuration measure_;
  actop::ShardedEngine engine_;
  std::unique_ptr<actop::Cluster> cluster_;
  std::unique_ptr<actop::HaloWorkload> halo_;
  std::unique_ptr<actop::HeartbeatWorkload> fleet_;
  actop::RateSchedule schedule_;
  std::unique_ptr<actop::OpenLoopDriver> driver_;
  uint64_t churned_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
