// Halo-scale macrobenchmark + gate (sixth perf-gate workload).
//
// One run at the paper-exceeding scale point: 1000 servers hosting a
// 10-million-player Halo Presence fleet on all host cores (engine shards =
// hardware threads, clamped to the server count). The paper's largest
// deployment was 10 servers / 100K players; this bench is the 100x push that
// the flattened per-actor state (slab directory, flat activation and player
// tables, lazily-sized location caches) and the high-shard-count engine work
// (tree barrier, outbox worklist) exist for.
//
// Reported per run:
//   * events/sec        — simulated milliseconds per wall-clock second over
//                         the whole run (the scale-invariant-per-shape unit
//                         shared with cluster_fig10b / bench_parallel)
//   * bytes_per_actor   — cumulative heap bytes allocated from process start
//                         through the end of warm-up, divided by the player
//                         count: the build-and-settle footprint budget per
//                         actor. Phase snapshots (post-cluster-build,
//                         post-workload-start, post-warm-up) break the total
//                         down by subsystem in the JSON.
//   * rss_per_actor     — peak resident set (VmHWM) per player, the
//                         OS-visible counterpart of bytes_per_actor
//   * measure-window allocs/bytes — steady-state churn after warm-up
//
// Partitioning is OFF: the migration data plane is gated by bench_partition
// and bench_arena already, and at K=1000 the exchange rounds would dominate
// the run with work this bench is not trying to measure. The thread
// optimizer is ON (one cheap controller per server, part of the full-system
// shape). One "scale" knob multiplies servers and players together
// (--scale=0.002 is the tier-1 smoke slice: 2 servers / 20K players), so the
// CI smoke run exercises every code path in seconds.
//
// Gates (--gate):
//   * events_per_sec vs --compare baseline (standard 10% threshold). The
//     baseline must match this host's "threads" header AND this run's
//     "scale" — unlike cluster_fig10b's sim-ms unit, halo_scale's events/s
//     moves with the population, so cross-scale comparisons are meaningless
//     and refused.
//   * bytes_per_actor <= the in-binary ceiling, applied at scale >= 0.5 only
//     (small populations amortize the fixed 1000-server overhead over too
//     few actors; the gate prints a waiver note below 0.5, the same pattern
//     as bench_parallel's low-core waiver).
//
// Flags, output and the --compare/--gate check are the shared ones of
// bench/harness.h.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/alloc_counter.h"
#include "bench/halo_common.h"
#include "bench/harness.h"
#include "src/common/sim_time.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/workload/halo_presence.h"

namespace actop {
namespace {

// Full-scale shape: the 100x-the-paper target from the roadmap.
constexpr int kFullServers = 1000;
constexpr int kFullPlayers = 10'000'000;
constexpr double kFullRequestRate = 20000.0;  // modest: ~20 req/s per server
// Short simulated windows keep the full run in minutes of wall time: warm-up
// covers the initial 1.25M-game SetGame wave, measure sees the steady mix of
// status requests and first-generation game churn (first-gen endings are
// desynchronized from t=1s, so ~15% of games turn over inside the run).
constexpr SimDuration kWarmup = Seconds(3);
constexpr SimDuration kMeasure = Seconds(5);

// Build-and-settle footprint ceiling, cumulative allocated bytes per player
// through warm-up at scale 1.0 (measured 2887 bytes/actor after the
// flat-state pass: player/roster slabs plus the initial 1.25M-game SetGame
// message wave through warm-up; ~11% headroom for benign growth-path
// variation). Peak RSS at the same point is ~1718 bytes/player. Applied at
// scale >= 0.5 only — below that the fixed per-server state dominates.
constexpr double kBytesPerActorCeiling = 3200.0;

struct HaloScaleResult {
  int servers = 0;
  int shards = 0;
  int64_t players = 0;
  uint64_t events = 0;    // simulated milliseconds (warmup + measure)
  uint64_t wall_ns = 0;   // whole run: build + populate + warmup + measure
  uint64_t sim_events = 0;  // engine events executed over the measure window
  uint64_t completed = 0;
  uint64_t timeouts = 0;
  uint64_t games_started = 0;
  // Cumulative allocated bytes at the phase boundaries.
  uint64_t bytes_cluster_build = 0;   // engine + 1000 servers + caches
  uint64_t bytes_workload_start = 0;  // + 10M-player tables, initial games
  uint64_t bytes_warmup = 0;          // + activation wave, directory fill
  uint64_t measure_allocs = 0;        // steady-state churn (measure window)
  uint64_t measure_bytes = 0;
  uint64_t peak_rss = 0;

  double events_per_sec() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns);
  }
  double bytes_per_actor() const {
    return players == 0 ? 0.0
                        : static_cast<double>(bytes_warmup) / static_cast<double>(players);
  }
  double rss_per_actor() const {
    return players == 0 ? 0.0 : static_cast<double>(peak_rss) / static_cast<double>(players);
  }
};

HaloScaleResult RunHaloScale(double scale) {
  HaloExperimentConfig config;
  config.num_servers =
      std::max(2, static_cast<int>(static_cast<double>(kFullServers) * scale + 0.5));
  config.players =
      std::max(1000, static_cast<int>(static_cast<double>(kFullPlayers) * scale + 0.5));
  config.request_rate = std::max(50.0, kFullRequestRate * scale);
  config.partitioning = false;
  config.thread_optimization = true;
  config.seed = 42;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int shards = std::min(static_cast<int>(hw), config.num_servers);

  HaloScaleResult out;
  out.servers = config.num_servers;
  out.shards = shards;
  out.players = config.players;

  const ClusterConfig cluster_config = MakeHaloClusterConfig(config);
  ShardedEngineConfig engine_config;
  engine_config.shards = shards;
  engine_config.lookahead = cluster_config.network.one_way_latency;

  const uint64_t t0 = NowNs();
  ShardedEngine engine(engine_config);
  Cluster cluster(&engine, cluster_config);
  out.bytes_cluster_build = AllocBytes();

  HaloWorkload halo(&cluster, MakeHaloWorkloadConfig(config));
  halo.Start();
  cluster.StartOptimizers();
  out.bytes_workload_start = AllocBytes();

  engine.RunUntil(kWarmup);
  out.bytes_warmup = AllocBytes();

  halo.clients().ResetStats();
  cluster.ResetMetricsLatencies();
  const uint64_t allocs0 = AllocCount();
  const uint64_t alloc_bytes0 = AllocBytes();
  const uint64_t events0 = engine.events_executed();

  engine.RunUntil(kWarmup + kMeasure);
  out.wall_ns = NowNs() - t0;

  out.sim_events = engine.events_executed() - events0;
  out.measure_allocs = AllocCount() - allocs0;
  out.measure_bytes = AllocBytes() - alloc_bytes0;
  out.events = static_cast<uint64_t>((kWarmup + kMeasure) / Millis(1));
  out.completed = halo.clients().completed();
  out.timeouts = halo.clients().timeouts();
  out.games_started = halo.games_started();
  out.peak_rss = PeakRssBytes();
  return out;
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) {
  using namespace actop;

  BenchHarness harness("halo_scale", argc, argv);
  harness.RecordHostThreads();
  const double scale = harness.scale();
  // Unlike the sim-ms-per-shape benches, halo_scale's throughput moves
  // with the population (--scale scales servers and players, not the
  // measure window), so a baseline is only valid at its recorded scale.
  double ref_scale = 0.0;
  if (!harness.ref_text().empty() &&
      (!LookupHeader(harness.ref_text(), "scale", &ref_scale) ||
       std::abs(ref_scale - scale) > 1e-9)) {
    harness.RefuseReference("was recorded at scale=%g but this run uses --scale=%g; "
                            "halo_scale baselines are population-specific — run at the "
                            "baseline's scale or re-record",
                            ref_scale, scale);
  }

  const HaloScaleResult r = RunHaloScale(scale);

  harness.AddScenario("halo_scale", r.events_per_sec(),
                      JsonFields()
                          .Int("servers", r.servers)
                          .Int("shards", r.shards)
                          .Int("players", r.players)
                          .Int("events", r.events)
                          .Int("wall_ns", r.wall_ns)
                          .Num("events_per_sec", "%.1f", r.events_per_sec())
                          .Num("bytes_per_actor", "%.1f", r.bytes_per_actor())
                          .Num("rss_per_actor", "%.1f", r.rss_per_actor())
                          .Int("peak_rss_bytes", r.peak_rss)
                          .Int("bytes_cluster_build", r.bytes_cluster_build)
                          .Int("bytes_workload_start", r.bytes_workload_start)
                          .Int("bytes_warmup", r.bytes_warmup)
                          .Int("measure_allocs", r.measure_allocs)
                          .Int("measure_bytes", r.measure_bytes)
                          .Int("sim_events", r.sim_events)
                          .Int("completed", r.completed)
                          .Int("timeouts", r.timeouts)
                          .Int("games_started", r.games_started));
  std::fprintf(stderr,
               "halo_scale: %d servers x %lld players on %d shard(s): %.1f sim-ms/wall-s, "
               "%.1f bytes/actor (rss %.1f), %llu calls, %llu timeouts, %llu games\n",
               r.servers, static_cast<long long>(r.players), r.shards, r.events_per_sec(),
               r.bytes_per_actor(), r.rss_per_actor(),
               static_cast<unsigned long long>(r.completed),
               static_cast<unsigned long long>(r.timeouts),
               static_cast<unsigned long long>(r.games_started));

  if (scale >= 0.5) {
    if (r.bytes_per_actor() > kBytesPerActorCeiling) {
      harness.GateFailure("%.1f bytes/actor exceeds the %.0f ceiling "
                          "(cumulative allocation through warm-up per player)",
                          r.bytes_per_actor(), kBytesPerActorCeiling);
    }
  } else if (harness.gate()) {
    std::fprintf(stderr,
                 "perf gate: bytes/actor ceiling waived at --scale=%g (< 0.5): small "
                 "populations amortize the fixed per-server state over too few actors\n",
                 scale);
  }
  if (r.completed == 0) {
    harness.GateFailure("no client calls completed — the run did not make progress");
  }
  return harness.Finish();
}
