// End-to-end cluster hot-path macrobenchmark (third perf-gate workload).
//
// Two halves:
//
// 1. CPU-scheduler scenarios, measured TWICE in the same binary (the
//    bench_partition pattern): once with the virtual-time CpuModel
//    (src/seda/cpu.h) and once with the retained seed implementation
//    (oracles/cpu_reference.h, namespace sedaref). The two are held
//    completion-for-completion equivalent by
//    tests/seda/cpu_differential_test.cc, so the in-binary
//    "speedup_vs_seed_impl" is a pure scheduler-data-structure comparison on
//    the same closed-loop workload.
//
//      cpu_closed_loop_x4    8 cores, 32 jobs in closed loop (4x thread
//                            oversubscription with the runtime's default
//                            dispatch quantum): every completion immediately
//                            launches a replacement with jittered demand —
//                            the saturated-single-server shape from the
//                            paper's Figure 5 heatmap.
//      cpu_closed_loop_x16   same at 16x oversubscription (128 jobs), where
//                            the seed's O(n) per-event remaining-demand loop
//                            and full min-rescan hurt most.
//      cpu_gc_churn          8x oversubscription with managed-runtime pauses
//                            enabled at the runtime's defaults: the
//                            pause/resume path (mass re-rate of every
//                            running job) plus steady completion churn.
//
//    The optimized phases must run allocation-free in steady state (slab
//    jobs, standing completion event, scratch batch buffers); the gate
//    enforces allocs_per_event == 0 for them.
//
// 2. cluster_fig10b: a short fig10b-shaped Halo Presence run (both ActOp
//    optimizations on) through the full runtime — servers, stages, network,
//    controllers, partitioning — reported as simulated milliseconds per
//    wall-clock second. No in-binary seed twin exists at this level (the
//    rewrite replaced the model in place), so this scenario is gated
//    against the checked-in baseline JSON plus a ratcheted allocs/event
//    ceiling over its measure window (steady state must stay within 3
//    allocations per simulated millisecond end to end; see EXPERIMENTS.md
//    "Allocs/event gate").
//
// Flags, output and the --compare/--gate check are the shared ones of
// bench/harness.h; see EXPERIMENTS.md ("Cluster macrobenchmark & perf
// gate"). --gate also fails if the geomean in-binary speedup over the three
// cpu_* scenarios falls below 1.5x (the acceptance target is 2x on the
// reference machine; 1.5x leaves headroom for noisy CI boxes while still
// catching a lost rewrite), or if a scenario breaks its allocation limit.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/halo_common.h"
#include "bench/harness.h"
#include "oracles/cpu_reference.h"
#include "src/common/sim_time.h"
#include "src/runtime/server.h"
#include "src/seda/cpu.h"
#include "src/sim/simulation.h"

namespace actop {
namespace {

struct ScenarioResult {
  std::string name;
  uint64_t events = 0;       // completions (cpu_*) / completed calls (cluster)
  uint64_t wall_ns = 0;      // wall-clock for the optimized measured phase
  uint64_t allocs = 0;       // heap allocations during the optimized phase
  uint64_t bytes = 0;        // heap bytes during the optimized phase
  uint64_t ref_wall_ns = 0;  // wall-clock for the seed-impl phase (0 = none)
  bool must_be_alloc_free = false;
  // When nonzero, the alloc counters cover a sub-window of `events` (e.g.
  // cluster_fig10b counts allocations over the measure window only, while
  // `events` spans warm-up + measure for scale-invariant throughput); use it
  // as the allocs/event denominator instead of `events`.
  uint64_t alloc_events = 0;
  // Ratcheted ceiling on allocs_per_event(); negative = not gated.
  double max_allocs_per_event = -1.0;

  double events_per_sec() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns);
  }
  double ns_per_event() const {
    return events == 0 ? 0.0 : static_cast<double>(wall_ns) / static_cast<double>(events);
  }
  double allocs_per_event() const {
    const uint64_t denom = alloc_events != 0 ? alloc_events : events;
    return denom == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(denom);
  }
  double bytes_per_event() const {
    const uint64_t denom = alloc_events != 0 ? alloc_events : events;
    return denom == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(denom);
  }
  bool has_seed_impl() const { return ref_wall_ns != 0; }
  // Both phases do identical work, so the speedup is the wall-clock ratio.
  double seed_impl_speedup() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(ref_wall_ns) / static_cast<double>(wall_ns);
  }
};

// ---------------------------------------------------------------------------
// Closed-loop CPU driver, templated over the model under test. `inflight`
// jobs are launched once; each completion immediately launches a replacement
// with LCG-jittered demand, keeping the CPU saturated at a fixed
// oversubscription level forever. Both template instantiations consume the
// same demand stream and the same model seed, so the two phases do
// statistically identical work (the differential tests pin the semantics).
// ---------------------------------------------------------------------------

template <typename Model>
struct ClosedLoop {
  Simulation sim;
  Model cpu;
  uint64_t completed = 0;
  uint64_t lcg;

  // The server model's CPU parameters, so the scenarios time what real
  // cluster runs use.
  ClosedLoop(uint64_t model_seed, uint64_t demand_seed)
      : cpu(&sim, Server::kCores, Server::kKappa, Server::kDispatchQuantum, model_seed),
        lcg(demand_seed) {}

  SimDuration NextDemand() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    // 20–85 µs of core time: the order of the halo stage compute costs.
    return Micros(20) + static_cast<SimDuration>((lcg >> 33) & 0xFFFF);
  }

  void Launch() {
    cpu.BeginCompute(NextDemand(), [this] {
      completed++;
      Launch();
    });
  }

  // Runs the event loop until `target` total completions; returns wall ns.
  uint64_t RunUntilCompleted(uint64_t target) {
    const uint64_t t0 = NowNs();
    while (completed < target && sim.RunOne()) {
    }
    return NowNs() - t0;
  }
};

template <typename Model>
uint64_t TimeClosedLoop(int inflight, bool gc_pauses, uint64_t warm, uint64_t measured,
                        uint64_t* measured_wall) {
  ClosedLoop<Model> loop(/*model_seed=*/0x5eedULL, /*demand_seed=*/0x0ddba11ULL);
  if (gc_pauses) {
    // Runtime GC defaults; total_threads drives pause length.
    const ServerConfig defaults;
    loop.cpu.set_total_threads(inflight);
    loop.cpu.EnablePauses(defaults.gc_mean_interval, defaults.gc_base_duration,
                          defaults.gc_per_thread_factor, Server::kGcSuperlinearExponent);
  }
  for (int i = 0; i < inflight; i++) {
    loop.Launch();
  }
  loop.RunUntilCompleted(warm);
  ResetAllocCounters();
  *measured_wall = loop.RunUntilCompleted(warm + measured);
  return loop.completed;
}

ScenarioResult RunCpuClosedLoop(const char* name, int inflight, bool gc_pauses,
                                uint64_t completions, double scale) {
  ScenarioResult out;
  out.name = name;
  out.must_be_alloc_free = true;
  const auto measured = static_cast<uint64_t>(static_cast<double>(completions) * scale);
  const uint64_t warm = measured / 10;

  uint64_t wall = 0;
  TimeClosedLoop<CpuModel>(inflight, gc_pauses, warm, measured, &wall);
  out.wall_ns = wall;
  out.events = measured;
  out.allocs = AllocCount();
  out.bytes = AllocBytes();

  TimeClosedLoop<sedaref::CpuModel>(inflight, gc_pauses, warm, measured, &wall);
  out.ref_wall_ns = wall;
  return out;
}

// ---------------------------------------------------------------------------
// cluster_fig10b: the full runtime end to end — a shortened Figure 10b run
// (Halo Presence, both optimizations on) reported as completed actor calls
// per wall-clock second. This is the macro check that the scheduler rewrite
// and the stage/server/metrics fast paths compose: the microbenchmarks above
// can't see cross-layer regressions (e.g. a scheduler change that shifts
// controller windows).
// ---------------------------------------------------------------------------

ScenarioResult RunClusterFig10b(double scale) {
  ScenarioResult out;
  out.name = "cluster_fig10b";

  HaloExperimentConfig config;
  config.players = 2000;
  config.request_rate = 900.0;
  config.partitioning = true;
  config.thread_optimization = true;
  config.warmup = Seconds(20);
  config.measure = std::max<SimDuration>(Seconds(1), SecondsF(10.0 * scale));
  config.seed = 42;

  // Snapshot the counters when the measure window opens so the reported
  // allocs/bytes cover steady state only: setup and warm-up legitimately
  // allocate (actor activations, map growth, pool priming), and counting
  // them would both mask steady-state churn and make the ceiling
  // scale-dependent.
  uint64_t allocs_at_measure = 0;
  uint64_t bytes_at_measure = 0;
  config.on_measure_start = [&allocs_at_measure, &bytes_at_measure] {
    allocs_at_measure = AllocCount();
    bytes_at_measure = AllocBytes();
  };

  ResetAllocCounters();
  const uint64_t t0 = NowNs();
  const HaloExperimentResult result = RunHaloExperiment(config);
  out.wall_ns = NowNs() - t0;
  // One "event" is one simulated millisecond of the whole run (warm-up
  // included): events_per_sec is then sim-ms per wall-second, which is
  // scale-invariant — unlike completed-calls/sec, which would amortize the
  // fixed warm-up over a scaled measure window and make the gate's
  // --scale=0.5 runs incomparable to the scale-1 baseline.
  out.events = static_cast<uint64_t>((config.warmup + config.measure) / Millis(1));
  out.allocs = AllocCount() - allocs_at_measure;
  out.bytes = AllocBytes() - bytes_at_measure;
  // The alloc counters span the measure window only; divide by its sim-ms.
  out.alloc_events = static_cast<uint64_t>(config.measure / Millis(1));
  // Ratcheted ceiling (see EXPERIMENTS.md): the data-plane slab/pool work
  // brought steady state from ~58 allocs/sim-ms down to 2.40, and routing
  // the partition agents through the persistent CSR arena planner (no
  // per-round LocalGraphView, all planning scratch reused) removed the control plane's ~1.8 allocs/sim-ms on top, leaving
  // 0.54 — essentially just the plan/response payloads that go onto the
  // wire. The ratchet went 5.0 -> 3.0 -> 2.5 -> 1.0; the current ceiling
  // keeps ~46% headroom for stdlib growth-policy differences while catching
  // any reintroduced per-round allocation.
  out.max_allocs_per_event = 1.0;

  std::fprintf(stderr,
               "cluster_fig10b: %llu calls, client latency %s ms, cpu %.1f%%, %llu timeouts\n",
               static_cast<unsigned long long>(result.completed),
               LatencySummary(result.client_latency).c_str(), 100.0 * result.cpu_utilization,
               static_cast<unsigned long long>(result.timeouts));
  return out;
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) {
  using namespace actop;

  BenchHarness harness("cluster", argc, argv);
  const double scale = harness.scale();
  std::vector<ScenarioResult> results;
  results.push_back(RunCpuClosedLoop("cpu_closed_loop_x4", /*inflight=*/4 * 8,
                                     /*gc_pauses=*/false, /*completions=*/600'000, scale));
  results.push_back(RunCpuClosedLoop("cpu_closed_loop_x16", /*inflight=*/16 * 8,
                                     /*gc_pauses=*/false, /*completions=*/400'000, scale));
  results.push_back(RunCpuClosedLoop("cpu_gc_churn", /*inflight=*/8 * 8,
                                     /*gc_pauses=*/true, /*completions=*/500'000, scale));
  results.push_back(RunClusterFig10b(scale));

  // Acceptance headline: geomean in-binary speedup over the CPU-bound
  // scenarios (the cluster scenario has no seed twin and is excluded).
  double gate_geomean = 1.0;
  int gate_terms = 0;
  int alloc_violations = 0;
  for (const ScenarioResult& r : results) {
    if (r.has_seed_impl()) {
      gate_geomean *= r.seed_impl_speedup();
      gate_terms++;
    }
    if (r.must_be_alloc_free && r.allocs != 0) {
      alloc_violations++;
      std::fprintf(stderr, "STEADY-STATE ALLOCS: %s made %llu heap allocations\n", r.name.c_str(),
                   static_cast<unsigned long long>(r.allocs));
    }
    if (r.max_allocs_per_event >= 0.0 && r.allocs_per_event() > r.max_allocs_per_event) {
      alloc_violations++;
      std::fprintf(stderr, "STEADY-STATE ALLOCS: %s at %.4f allocs/event exceeds ceiling %.1f\n",
                   r.name.c_str(), r.allocs_per_event(), r.max_allocs_per_event);
    }
  }
  gate_geomean = gate_terms > 0 ? std::pow(gate_geomean, 1.0 / gate_terms) : 0.0;

  for (const ScenarioResult& r : results) {
    JsonFields fields;
    fields.Int("events", r.events)
        .Int("wall_ns", r.wall_ns)
        .Num("events_per_sec", "%.0f", r.events_per_sec())
        .Num("ns_per_event", "%.2f", r.ns_per_event())
        .Num("allocs_per_event", "%.4f", r.allocs_per_event())
        .Num("bytes_per_event", "%.1f", r.bytes_per_event());
    if (r.has_seed_impl()) {
      fields.Num("speedup_vs_seed_impl", "%.3f", r.seed_impl_speedup());
    }
    const std::optional<double> speedup = harness.AddScenario(r.name, r.events_per_sec(), fields);
    const std::string vs_seed =
        r.has_seed_impl() ? "  x" + std::to_string(r.seed_impl_speedup()).substr(0, 5) + " vs seed"
                          : "";
    const std::string vs_ref = speedup ? " (x" + std::to_string(*speedup) + " vs ref)" : "";
    std::fprintf(stderr, "%-18s %12.0f events/s  %10.2f ns/event  %8.4f allocs/event%s%s\n",
                 r.name.c_str(), r.events_per_sec(), r.ns_per_event(), r.allocs_per_event(),
                 vs_seed.c_str(), vs_ref.c_str());
  }
  harness.AddField("geomean_speedup_vs_seed_impl", "%.3f", gate_geomean);
  std::fprintf(stderr, "geomean speedup vs seed impl (cpu_* scenarios): x%.2f\n", gate_geomean);

  if (gate_geomean < 1.5) {
    harness.GateFailure("geomean speedup vs seed impl x%.2f below the 1.5x floor", gate_geomean);
  }
  if (alloc_violations > 0) {
    harness.GateFailure("%d scenario(s) violated steady-state allocation limits",
                        alloc_violations);
  }
  return harness.Finish();
}
