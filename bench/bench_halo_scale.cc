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
// Usage:
//   bench_halo_scale [--json=FILE] [--compare=FILE] [--gate]
//                    [--threshold=0.10] [--scale=1.0]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/halo_common.h"
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

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Peak resident set size from /proc/self/status (VmHWM, kB -> bytes);
// 0 when the field is unavailable (non-Linux).
uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<uint64_t>(std::strtoull(line.c_str() + 6, nullptr, 10)) * 1024;
    }
  }
  return 0;
}

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

// Pulls `"key": <number>` out of a one-scenario-per-line JSON file for the
// line whose "name" matches (same contract as the other bench gates).
bool LookupRef(const std::string& ref_text, const std::string& name, const std::string& key,
               double* value) {
  std::istringstream in(ref_text);
  std::string line;
  const std::string name_tag = "\"name\": \"" + name + "\"";
  const std::string key_tag = "\"" + key + "\": ";
  while (std::getline(in, line)) {
    if (line.find(name_tag) == std::string::npos) {
      continue;
    }
    const size_t kat = line.find(key_tag);
    if (kat == std::string::npos) {
      return false;
    }
    *value = std::strtod(line.c_str() + kat + key_tag.size(), nullptr);
    return true;
  }
  return false;
}

// Top-level `"key": <number>` (header fields, outside the scenarios array).
bool LookupHeader(const std::string& ref_text, const std::string& key, double* value) {
  const std::string key_tag = "\"" + key + "\": ";
  const size_t at = ref_text.find(key_tag);
  if (at == std::string::npos) {
    return false;
  }
  *value = std::strtod(ref_text.c_str() + at + key_tag.size(), nullptr);
  return true;
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) {
  using namespace actop;

  std::string json_path;
  std::string compare_path;
  bool gate = false;
  double threshold = 0.10;
  double scale = 1.0;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--compare=", 0) == 0) {
      compare_path = arg.substr(10);
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold = std::strtod(arg.c_str() + 12, nullptr);
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::strtod(arg.c_str() + 8, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_halo_scale [--json=FILE] [--compare=FILE] [--gate] "
                   "[--threshold=0.10] [--scale=1.0]\n");
      return 2;
    }
  }

  const unsigned hw_threads = std::thread::hardware_concurrency();

  std::string ref_text;
  if (!compare_path.empty()) {
    std::ifstream in(compare_path);
    if (!in) {
      std::fprintf(stderr, "bench_halo_scale: cannot read reference %s\n", compare_path.c_str());
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    ref_text = os.str();
    double ref_threads = 0.0;
    if (!LookupHeader(ref_text, "threads", &ref_threads)) {
      std::fprintf(stderr,
                   "bench_halo_scale: reference %s has no \"threads\" header field; "
                   "refusing to compare against an unknown host parallelism\n",
                   compare_path.c_str());
      return 2;
    }
    if (static_cast<unsigned>(ref_threads) != hw_threads) {
      std::fprintf(stderr,
                   "bench_halo_scale: reference %s was recorded with threads=%u but this "
                   "host has %u hardware threads; re-record the baseline on this host\n",
                   compare_path.c_str(), static_cast<unsigned>(ref_threads), hw_threads);
      return 2;
    }
    // Unlike the sim-ms-per-shape benches, halo_scale's throughput moves
    // with the population (--scale scales servers and players, not the
    // measure window), so a baseline is only valid at its recorded scale.
    double ref_scale = 0.0;
    if (!LookupHeader(ref_text, "scale", &ref_scale) ||
        std::abs(ref_scale - scale) > 1e-9) {
      std::fprintf(stderr,
                   "bench_halo_scale: reference %s was recorded at scale=%g but this run "
                   "uses --scale=%g; halo_scale baselines are population-specific — "
                   "run at the baseline's scale or re-record\n",
                   compare_path.c_str(), ref_scale, scale);
      return 2;
    }
  }

  const HaloScaleResult r = RunHaloScale(scale);

  double ref_eps = 0.0;
  const bool have_ref =
      !ref_text.empty() && LookupRef(ref_text, "halo_scale", "events_per_sec", &ref_eps) &&
      ref_eps > 0.0;
  const double vs_ref = have_ref ? r.events_per_sec() / ref_eps : 0.0;
  int regressions = 0;
  if (have_ref && vs_ref < 1.0 - threshold) {
    regressions++;
    std::fprintf(stderr, "PERF REGRESSION: halo_scale %.1f events/s vs ref %.1f (x%.3f < %.3f)\n",
                 r.events_per_sec(), ref_eps, vs_ref, 1.0 - threshold);
  }

  char buf[64];
  std::ostringstream body;
  body << "{\n  \"bench\": \"halo_scale\",\n  \"schema_version\": 1,\n";
#ifdef NDEBUG
  body << "  \"assertions\": false,\n";
#else
  body << "  \"assertions\": true,\n";
#endif
  body << "  \"threads\": " << hw_threads << ",\n";
  body << "  \"scale\": " << scale << ",\n  \"scenarios\": [\n";
  body << "    {\"name\": \"halo_scale\", \"servers\": " << r.servers
       << ", \"shards\": " << r.shards << ", \"players\": " << r.players
       << ", \"events\": " << r.events << ", \"wall_ns\": " << r.wall_ns;
  std::snprintf(buf, sizeof(buf), "%.1f", r.events_per_sec());
  body << ", \"events_per_sec\": " << buf;
  std::snprintf(buf, sizeof(buf), "%.1f", r.bytes_per_actor());
  body << ", \"bytes_per_actor\": " << buf;
  std::snprintf(buf, sizeof(buf), "%.1f", r.rss_per_actor());
  body << ", \"rss_per_actor\": " << buf;
  body << ", \"peak_rss_bytes\": " << r.peak_rss
       << ", \"bytes_cluster_build\": " << r.bytes_cluster_build
       << ", \"bytes_workload_start\": " << r.bytes_workload_start
       << ", \"bytes_warmup\": " << r.bytes_warmup
       << ", \"measure_allocs\": " << r.measure_allocs
       << ", \"measure_bytes\": " << r.measure_bytes
       << ", \"sim_events\": " << r.sim_events
       << ", \"completed\": " << r.completed << ", \"timeouts\": " << r.timeouts
       << ", \"games_started\": " << r.games_started;
  if (have_ref) {
    std::snprintf(buf, sizeof(buf), "%.3f", vs_ref);
    body << ", \"speedup_vs_ref\": " << buf;
  }
  body << "}\n  ]\n}\n";

  std::fprintf(stderr,
               "halo_scale: %d servers x %lld players on %d shard(s): %.1f sim-ms/wall-s, "
               "%.1f bytes/actor (rss %.1f), %llu calls, %llu timeouts, %llu games\n",
               r.servers, static_cast<long long>(r.players), r.shards, r.events_per_sec(),
               r.bytes_per_actor(), r.rss_per_actor(),
               static_cast<unsigned long long>(r.completed),
               static_cast<unsigned long long>(r.timeouts),
               static_cast<unsigned long long>(r.games_started));

  const std::string text = body.str();
  std::fputs(text.c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << text;
  }

  int failures = 0;
  if (gate && regressions > 0) {
    std::fprintf(stderr, "perf gate: %d scenario(s) regressed beyond %.0f%%\n", regressions,
                 threshold * 100.0);
    failures++;
  }
  if (gate) {
    if (scale >= 0.5) {
      if (r.bytes_per_actor() > kBytesPerActorCeiling) {
        std::fprintf(stderr,
                     "perf gate: %.1f bytes/actor exceeds the %.0f ceiling "
                     "(cumulative allocation through warm-up per player)\n",
                     r.bytes_per_actor(), kBytesPerActorCeiling);
        failures++;
      }
    } else {
      std::fprintf(stderr,
                   "perf gate: bytes/actor ceiling waived at --scale=%g (< 0.5): small "
                   "populations amortize the fixed per-server state over too few actors\n",
                   scale);
    }
    if (r.completed == 0) {
      std::fprintf(stderr, "perf gate: no client calls completed — the run did not make "
                           "progress\n");
      failures++;
    }
  }
  return failures > 0 ? 1 : 0;
}
