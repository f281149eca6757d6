// Ablations of the partitioning design choices called out in §4.2 and
// DESIGN.md:
//   * pairwise coordination vs uncoordinated unilateral migration;
//   * candidate-set (batch) size, down to vertex-by-vertex (Ja-Be-Ja-style);
//   * edge-sampling capacity (Space-Saving top-k) vs partition quality;
//   * distributed algorithm vs the centralized offline baseline (METIS role).

#include <chrono>
#include <cstdio>

#include "oracles/offline_partitioner.h"
#include "oracles/partition_testbed.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/core/space_saving.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "src/workload/halo_presence.h"

namespace actop {
namespace {

WeightedGraph MakeGraph(uint64_t seed) {
  Rng rng(seed);
  // Halo-shaped: 900 vertices in 9-cliques plus random cross edges.
  return MakeClusteredGraph(100, 9, 1.0, 90, 0.1, &rng);
}

void PairwiseVsUnilateral(uint64_t seed) {
  std::printf("-- pairwise coordination vs unilateral migration --\n");
  WeightedGraph g = MakeGraph(seed);
  PairwiseConfig config;
  config.candidate_set_size = 64;
  config.balance_delta = 18;

  PartitionTestbed pairwise(&g, 10, config, seed);
  const double initial = pairwise.Cost();
  int pairwise_sweeps = 0;
  for (; pairwise_sweeps < 200; pairwise_sweeps++) {
    int moved = 0;
    for (ServerId p = 0; p < pairwise.num_servers(); p++) {
      moved += pairwise.RunRound(p);
    }
    if (moved == 0) {
      break;
    }
  }

  PartitionTestbed unilateral(&g, 10, config, seed);
  int unilateral_sweeps = 0;
  for (; unilateral_sweeps < 200; unilateral_sweeps++) {
    if (unilateral.RunUnilateralSweep() == 0) {
      break;
    }
  }

  Table t({"mode", "cut cost", "cut reduction", "imbalance", "migrations", "sweeps"});
  t.AddRow({"pairwise (ActOp)", FormatDouble(pairwise.Cost(), 1),
            FormatPercent(1.0 - pairwise.Cost() / initial),
            std::to_string(pairwise.MaxImbalance()),
            std::to_string(pairwise.total_migrations()), std::to_string(pairwise_sweeps)});
  t.AddRow({"unilateral", FormatDouble(unilateral.Cost(), 1),
            FormatPercent(1.0 - unilateral.Cost() / initial),
            std::to_string(unilateral.MaxImbalance()),
            std::to_string(unilateral.total_migrations()), std::to_string(unilateral_sweeps)});
  t.Print();
}

void CandidateSetSweep(uint64_t seed) {
  std::printf("\n-- candidate-set (batch) size: k=1 is vertex-by-vertex (Ja-Be-Ja-style) --\n");
  Table t({"k", "cut reduction", "sweeps to converge", "migrations"});
  for (size_t k : {size_t{1}, size_t{4}, size_t{16}, size_t{64}, size_t{256}}) {
    WeightedGraph g = MakeGraph(seed);
    PairwiseConfig config;
    config.candidate_set_size = k;
    config.balance_delta = 18;
    PartitionTestbed bed(&g, 10, config, seed);
    const double initial = bed.Cost();
    const int sweeps = bed.RunToConvergence(400);
    t.AddRow({std::to_string(k), FormatPercent(1.0 - bed.Cost() / initial),
              std::to_string(sweeps), std::to_string(bed.total_migrations())});
  }
  t.Print();
}

void OfflineComparison(uint64_t seed) {
  std::printf("\n-- distributed vs centralized offline partitioner (METIS role) --\n");
  WeightedGraph g = MakeGraph(seed);
  PairwiseConfig config;
  config.candidate_set_size = 64;
  config.balance_delta = 18;
  PartitionTestbed bed(&g, 10, config, seed);
  const double initial = bed.Cost();

  auto t0 = std::chrono::steady_clock::now();
  bed.RunToConvergence(400);
  const auto distributed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
  t0 = std::chrono::steady_clock::now();
  const auto offline = OfflinePartition(g, 10, 18);
  const auto offline_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  Table t({"algorithm", "cut cost", "vs random", "wall (ms)"});
  t.AddRow({"random placement", FormatDouble(initial, 1), "-", "-"});
  t.AddRow({"distributed pairwise", FormatDouble(bed.Cost(), 1),
            FormatPercent(1.0 - bed.Cost() / initial), std::to_string(distributed_ms)});
  t.AddRow({"centralized offline", FormatDouble(offline.cut_cost, 1),
            FormatPercent(1.0 - offline.cut_cost / initial), std::to_string(offline_ms)});
  t.Print();
}

void EdgeSamplingSweep(uint64_t seed) {
  std::printf("\n-- edge-sample capacity (Space-Saving top-k) in the full runtime --\n");
  Table t({"capacity", "steady remote fraction"});
  for (size_t capacity : {size_t{256}, size_t{1024}, size_t{4096}, size_t{16384}}) {
    ShardedEngine engine{{}};
    Simulation& sim = engine.sim();
    ClusterConfig cfg;
    cfg.num_servers = 8;
    cfg.seed = seed;
    cfg.enable_partitioning = true;
    cfg.partition.exchange_period = Seconds(1);
    cfg.partition.exchange_min_gap = Seconds(1);
    cfg.partition.max_peers_per_round = 4;
    cfg.partition.pairwise.candidate_set_size = 256;
    cfg.partition.pairwise.balance_delta = 200;
    cfg.partition.edge_sample_capacity = capacity;
    cfg.partition.edge_decay_period = Seconds(10);
    Cluster cluster(&engine, cfg);
    HaloWorkloadConfig w;
    w.target_players = 4000;
    w.idle_pool_target = 40;
    w.request_rate = 1200.0;
    HaloWorkload halo(&cluster, w);
    halo.Start();
    cluster.StartOptimizers();
    sim.RunUntil(Seconds(50));
    cluster.TakeMetricsWindow();
    sim.RunUntil(Seconds(70));
    t.AddRow({std::to_string(capacity),
              FormatPercent(cluster.TakeMetricsWindow().remote_fraction())});
  }
  t.Print();
}

int Main(int argc, char** argv) {
  Flags flags;
  flags.DefineInt("seed", 7, "random seed");
  flags.Parse(argc, argv);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed"));

  std::printf("== Partitioning design ablations (§4.2) ==\n\n");
  PairwiseVsUnilateral(seed);
  CandidateSetSweep(seed);
  OfflineComparison(seed);
  EdgeSamplingSweep(seed);
  return 0;
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) { return actop::Main(argc, argv); }
