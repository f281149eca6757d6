// Parallel-core scaling benchmark + gate (fourth perf-gate workload).
//
// Runs the same fig10b-shaped Halo Presence experiment (both ActOp
// optimizations on, the bench_cluster cluster_fig10b shape) once per shard
// count in {1, 2, 4, 8} and reports the scaling curve: simulated
// milliseconds per wall-clock second at each point, plus each point's
// speedup over the serial (shards=1) run in the same binary. The serial run
// is the exact historical engine — ShardedEngine with one shard delegates
// byte-for-byte to Simulation::RunUntil — so "speedup_vs_serial" measures
// precisely what the conservative-window parallel core buys.
//
// The headline acceptance target is >= 3x at 8 shards. Wall-clock parallel
// speedup is a property of the host: on a machine with fewer than 8
// hardware threads the 8-shard run time-slices its workers and the target
// is unmeasurable, so the in-binary floor applies only when
// std::thread::hardware_concurrency() >= 8 (the gate prints a note and
// waives the floor otherwise — CI perf runners enforce it, 1-vCPU builders
// don't block on it).
//
// The JSON header records "threads" (the host's hardware concurrency), and
// --compare refuses a reference recorded at another count: scaling
// baselines are only comparable between hosts with the same parallelism.
// Flags, output and the --compare/--gate check are the shared ones of
// bench/harness.h.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/halo_common.h"
#include "bench/harness.h"
#include "src/common/sim_time.h"

namespace actop {
namespace {

struct ScalePoint {
  std::string name;
  int shards = 1;
  uint64_t events = 0;   // simulated milliseconds executed
  uint64_t wall_ns = 0;  // wall-clock for the whole run
  uint64_t completed = 0;
  uint64_t timeouts = 0;

  double events_per_sec() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns);
  }
};

ScalePoint RunPoint(int shards, double scale) {
  HaloExperimentConfig config;
  config.players = 2000;
  config.request_rate = 900.0;
  config.partitioning = true;
  config.thread_optimization = true;
  config.warmup = Seconds(5);
  config.measure = std::max<SimDuration>(Seconds(1), SecondsF(10.0 * scale));
  config.seed = 42;
  config.shards = shards;

  ScalePoint out;
  out.name = "halo_shards" + std::to_string(shards);
  out.shards = shards;
  const uint64_t t0 = NowNs();
  const HaloExperimentResult result = RunHaloExperiment(config);
  out.wall_ns = NowNs() - t0;
  // Same scale-invariant unit as cluster_fig10b: one "event" is one
  // simulated millisecond of the whole run.
  out.events = static_cast<uint64_t>((config.warmup + config.measure) / Millis(1));
  out.completed = result.completed;
  out.timeouts = result.timeouts;
  return out;
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) {
  using namespace actop;

  BenchHarness harness("parallel", argc, argv);
  const unsigned hw_threads = harness.RecordHostThreads();

  std::vector<ScalePoint> points;
  for (int shards : {1, 2, 4, 8}) {
    points.push_back(RunPoint(shards, harness.scale()));
  }
  const double serial_wall = static_cast<double>(points[0].wall_ns);

  double speedup_at_8 = 0.0;
  for (const ScalePoint& p : points) {
    const double speedup = p.wall_ns == 0 ? 0.0 : serial_wall / static_cast<double>(p.wall_ns);
    if (p.shards == 8) {
      speedup_at_8 = speedup;
    }
    harness.AddScenario(p.name, p.events_per_sec(),
                        JsonFields()
                            .Int("shards", p.shards)
                            .Int("events", p.events)
                            .Int("wall_ns", p.wall_ns)
                            .Num("events_per_sec", "%.0f", p.events_per_sec())
                            .Num("speedup_vs_serial", "%.3f", speedup)
                            .Int("completed", p.completed)
                            .Int("timeouts", p.timeouts));
    std::fprintf(stderr, "%-14s %10.0f sim-ms/s  x%.3f vs serial  (%llu calls, %llu timeouts)\n",
                 p.name.c_str(), p.events_per_sec(), speedup,
                 static_cast<unsigned long long>(p.completed),
                 static_cast<unsigned long long>(p.timeouts));
  }
  harness.AddField("speedup_at_8_shards", "%.3f", speedup_at_8);
  std::fprintf(stderr, "speedup at 8 shards: x%.2f (host threads: %u)\n", speedup_at_8,
               hw_threads);

  if (hw_threads >= 8) {
    if (speedup_at_8 < 3.0) {
      harness.GateFailure("speedup at 8 shards x%.2f below the 3.0x floor "
                          "(host has %u hardware threads)",
                          speedup_at_8, hw_threads);
    }
  } else if (harness.gate()) {
    std::fprintf(stderr,
                 "perf gate: 3x-at-8-shards floor waived — host has %u hardware "
                 "threads (< 8); the 8-shard run time-slices its workers here\n",
                 hw_threads);
  }
  return harness.Finish();
}
