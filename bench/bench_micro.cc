// Micro-benchmarks (google-benchmark) for the building blocks: the event
// engine, histogram, Space-Saving sampler, CPU model, the pairwise exchange
// computation, and the closed-form thread allocator.

#include <benchmark/benchmark.h>

#include "oracles/local_graph_planner.h"
#include "oracles/partition_testbed.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/core/space_saving.h"
#include "src/core/thread_allocator.h"
#include "src/seda/cpu.h"
#include "src/sim/simulation.h"

namespace actop {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int i = 0; i < 1000; i++) {
      sim.ScheduleAfter(i, [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.Record(static_cast<int64_t>(rng.NextBounded(1'000'000'000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 100000; i++) {
    h.Record(static_cast<int64_t>(rng.NextExp(1e6)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.p99());
  }
}
BENCHMARK(BM_HistogramQuantile);

void BM_SpaceSavingObserve(benchmark::State& state) {
  SpaceSaving<uint64_t> ss(static_cast<size_t>(state.range(0)));
  Rng rng(2);
  for (auto _ : state) {
    ss.Observe(rng.NextBounded(1'000'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingObserve)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_CpuModelChurn(benchmark::State& state) {
  // Throughput of the event-driven processor-sharing model with the given
  // number of concurrent jobs.
  const int concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    CpuModel cpu(&sim, 8, 0.03);
    int completed = 0;
    for (int i = 0; i < concurrency; i++) {
      std::function<void()> resubmit = [&cpu, &completed, &resubmit] {
        completed++;
      };
      cpu.BeginCompute(Micros(50), resubmit);
    }
    sim.Run();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CpuModelChurn)->Arg(8)->Arg(32)->Arg(128);

void BM_BuildPeerPlans(benchmark::State& state) {
  // O(V log k) candidate-set computation (§4.2 complexity analysis).
  const int vertices = static_cast<int>(state.range(0));
  Rng rng(3);
  WeightedGraph g = MakeClusteredGraph(vertices / 9, 9, 1.0, vertices / 10, 0.1, &rng);
  PairwiseConfig config;
  config.candidate_set_size = 64;
  PartitionTestbed bed(&g, 8, config, 3);
  const LocalGraphView view = bed.BuildView(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPeerPlans(view, config));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(view.adjacency.size()));
}
BENCHMARK(BM_BuildPeerPlans)->Arg(900)->Arg(9000)->Arg(90000);

void BM_DecideExchange(benchmark::State& state) {
  Rng rng(4);
  WeightedGraph g = MakeClusteredGraph(200, 9, 1.0, 100, 0.1, &rng);
  PairwiseConfig config;
  config.candidate_set_size = static_cast<size_t>(state.range(0));
  config.balance_delta = 64;
  PartitionTestbed bed(&g, 4, config, 4);
  const LocalGraphView p_view = bed.BuildView(0);
  const auto plans = BuildPeerPlans(p_view, config);
  if (plans.empty()) {
    state.SkipWithError("no plans");
    return;
  }
  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 450;
  request.candidates = plans[0].candidates;
  const LocalGraphView q_view = bed.BuildView(plans[0].peer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecideExchange(q_view, request, config));
  }
}
BENCHMARK(BM_DecideExchange)->Arg(16)->Arg(64)->Arg(256);

void BM_ClosedFormAllocator(benchmark::State& state) {
  AllocationProblem problem;
  problem.processors = 8;
  problem.eta = 100e-6;
  problem.stages = {
      {.lambda = 15000.0, .s = 12000.0, .beta = 1.0},
      {.lambda = 15000.0, .s = 40000.0, .beta = 1.0},
      {.lambda = 1000.0, .s = 12000.0, .beta = 1.0},
      {.lambda = 15000.0, .s = 13000.0, .beta = 1.0},
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntegerAllocation(problem));
  }
}
BENCHMARK(BM_ClosedFormAllocator);

void BM_GradientAllocator(benchmark::State& state) {
  AllocationProblem problem;
  problem.processors = 8;
  problem.eta = 1e-7;  // below ζ: forces the projected-gradient path
  problem.stages = {
      {.lambda = 15000.0, .s = 12000.0, .beta = 1.0},
      {.lambda = 15000.0, .s = 40000.0, .beta = 1.0},
      {.lambda = 15000.0, .s = 13000.0, .beta = 1.0},
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(GradientAllocation(problem));
  }
}
BENCHMARK(BM_GradientAllocator);

}  // namespace
}  // namespace actop

BENCHMARK_MAIN();
