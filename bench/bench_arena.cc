// Repartitioning arena benchmark (third perf-gate workload).
//
// Races the flat CSR repartitioning data plane (RepartitionArena) against
// the retained map-based PartitionTestbed on million-vertex graphs, and
// races the pluggable policies (src/core/repartition_policy.h) against each
// other on clustered, random, and churned topologies.
//
// Gated scenarios (compared against bench/baselines/BENCH_arena.baseline.json
// and self-gated by scripts/perf_gate.sh):
//
//   pairwise_rounds_100k   full pairwise rounds (plan + exchange + apply) on
//                          a 100k-vertex clustered graph, 8 servers.
//   pairwise_rounds_1m     the same at 1M vertices, 16 servers. One event =
//                          one pairwise round. The arena and the testbed
//                          execute byte-identical decision sequences (proven
//                          by tests/core/arena_differential_test.cc and
//                          re-checked here via assignment digests — exit 2
//                          on divergence), so speedup_vs_seed_impl is a pure
//                          data-plane comparison. The measured arena phase
//                          must be allocation-free: all candidate pools,
//                          heaps, and top-k scratch recycle after the warmup
//                          sweep.
//
// Policy races (informational, not gated — rows are keyed "policy" so the
// perf-gate comparator, which matches "name", skips them): every policy
// starts from the identical placement and runs sweeps to convergence or a
// cap, reporting sweeps, final cut cost (the cross-server message rate up to
// the per-message constant), and migration volume. See EXPERIMENTS.md
// ("Repartitioning arena").
//
// Usage:
//   bench_arena [--json=FILE] [--compare=FILE] [--gate] [--threshold=0.10]
//               [--scale=1.0] [--smoke]
//
// --gate fails (exit 1) if a gated scenario regresses beyond --threshold vs
// the --compare reference, if the geomean in-binary speedup over the two
// pairwise scenarios falls below 5x, or if the arena's measured phase
// allocates at all. --smoke runs a tiny identity + policy sanity pass and
// exits (the tier-1 CI entry).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/core/csr_graph.h"
#include "src/core/partition_testbed.h"
#include "src/core/repartition_arena.h"
#include "src/core/repartition_policy.h"

namespace actop {
namespace {

struct ScenarioResult {
  std::string name;
  uint64_t events = 0;       // pairwise rounds driven through the arena
  uint64_t wall_ns = 0;      // wall-clock for the arena's measured phase
  uint64_t allocs = 0;       // heap allocations during the arena phase
  uint64_t bytes = 0;        // heap bytes during the arena phase
  uint64_t ref_wall_ns = 0;  // wall-clock for the testbed phase (same work)

  double events_per_sec() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns);
  }
  double ns_per_event() const {
    return events == 0 ? 0.0 : static_cast<double>(wall_ns) / static_cast<double>(events);
  }
  double allocs_per_event() const {
    return events == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(events);
  }
  // Both phases execute byte-identical decision sequences, so the speedup is
  // the wall-clock ratio.
  double seed_impl_speedup() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(ref_wall_ns) / static_cast<double>(wall_ns);
  }
};

struct RaceRow {
  std::string race;     // graph/topology label
  std::string policy;   // policy name from RepartitionPolicy::name()
  int sweeps = 0;
  bool converged = false;
  double initial_cost = 0.0;
  double final_cost = 0.0;
  int64_t migrations = 0;
  uint64_t wall_ns = 0;
};

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Assignment digest of a testbed run, bit-compatible with
// RepartitionArena::AssignmentDigest (FNV-1a over (id, location) in
// ascending-id order, then total migrations).
uint64_t TestbedDigest(const PartitionTestbed& bed, const std::vector<VertexId>& sorted_ids) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (VertexId v : sorted_ids) {
    mix(v);
    mix(static_cast<uint64_t>(static_cast<int64_t>(bed.LocationOf(v))));
  }
  mix(static_cast<uint64_t>(bed.total_migrations()));
  return h;
}

// ---------------------------------------------------------------------------
// Gated scenarios: pairwise rounds, arena vs testbed on the same clustered
// graph. Both run kWarmSweeps + kTimedSweeps from the same placement seed;
// only the timed sweeps are measured, and the arena's timed phase must not
// allocate (pools and heaps are warm after the first sweep).
// ---------------------------------------------------------------------------

constexpr int kWarmSweeps = 1;
constexpr int kTimedSweeps = 3;

ScenarioResult RunPairwiseRounds(const std::string& name, const WeightedGraph& graph,
                                 const CsrGraph& csr, int servers, uint64_t placement_seed) {
  PairwiseConfig config;
  config.candidate_set_size = 64;
  config.balance_delta = 16;

  ScenarioResult out;
  out.name = name;

  RepartitionArena arena(&csr, servers, config, placement_seed);
  for (int s = 0; s < kWarmSweeps; s++) {
    arena.RunPairwiseSweep();
  }
  ResetAllocCounters();
  const uint64_t t0 = NowNs();
  for (int s = 0; s < kTimedSweeps; s++) {
    arena.RunPairwiseSweep();
  }
  out.wall_ns = NowNs() - t0;
  out.events = static_cast<uint64_t>(kTimedSweeps) * static_cast<uint64_t>(servers);
  out.allocs = AllocCount();
  out.bytes = AllocBytes();

  PartitionTestbed bed(&graph, servers, config, placement_seed);
  for (int s = 0; s < kWarmSweeps; s++) {
    for (ServerId p = 0; p < servers; p++) {
      bed.RunRound(p);
    }
  }
  const uint64_t r0 = NowNs();
  for (int s = 0; s < kTimedSweeps; s++) {
    for (ServerId p = 0; p < servers; p++) {
      bed.RunRound(p);
    }
  }
  out.ref_wall_ns = NowNs() - r0;

  // Both phases ran the same sweeps from the same seed; any divergence means
  // the benchmark is comparing different work — refuse to report numbers.
  const uint64_t arena_digest = arena.AssignmentDigest();
  const uint64_t bed_digest = TestbedDigest(bed, graph.Vertices());
  if (arena_digest != bed_digest) {
    std::fprintf(stderr, "bench_arena: %s arena/testbed decisions diverged (%016llx vs %016llx)\n",
                 name.c_str(), static_cast<unsigned long long>(arena_digest),
                 static_cast<unsigned long long>(bed_digest));
    std::exit(2);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Policy races: every policy starts from the identical placement and sweeps
// to convergence or the cap.
// ---------------------------------------------------------------------------

void RunRace(const std::string& race, const CsrGraph& csr, int servers,
             uint64_t placement_seed, int max_sweeps, std::vector<RaceRow>* rows) {
  PairwiseConfig config;
  config.candidate_set_size = 64;
  config.balance_delta = 16;
  for (const auto& policy : MakeArenaPolicies()) {
    RepartitionArena arena(&csr, servers, config, placement_seed);
    RaceRow row;
    row.race = race;
    row.policy = policy->name();
    row.initial_cost = arena.cost();
    const uint64_t t0 = NowNs();
    for (int s = 0; s < max_sweeps; s++) {
      const int64_t moved = policy->RunSweep(&arena);
      row.sweeps++;
      if (moved == 0) {
        row.converged = true;
        break;
      }
    }
    row.wall_ns = NowNs() - t0;
    row.final_cost = arena.cost();
    row.migrations = arena.total_migrations();
    rows->push_back(row);
    std::fprintf(stderr, "race %-14s %-10s %3d sweeps%s  cost %10.1f -> %10.1f  %8lld moved  %6.1f ms\n",
                 race.c_str(), row.policy.c_str(), row.sweeps, row.converged ? "*" : " ",
                 row.initial_cost, row.final_cost, static_cast<long long>(row.migrations),
                 static_cast<double>(row.wall_ns) / 1e6);
  }
}

// ---------------------------------------------------------------------------
// Smoke mode: tiny identity + policy sanity pass; the tier-1 CI entry.
// ---------------------------------------------------------------------------

int RunSmoke() {
  Rng grng(7);
  const WeightedGraph graph = MakeClusteredGraph(200, 8, 1.0, 400, 0.5, &grng);
  const CsrGraph csr = CsrGraph::FromWeighted(graph);
  PairwiseConfig config;
  config.candidate_set_size = 16;
  config.balance_delta = 8;

  RepartitionArena arena(&csr, 4, config, 99);
  PartitionTestbed bed(&graph, 4, config, 99);
  for (int s = 0; s < 3; s++) {
    for (ServerId p = 0; p < 4; p++) {
      const int a = arena.RunPairwiseRound(p);
      const int b = bed.RunRound(p);
      if (a != b) {
        std::fprintf(stderr, "arena smoke: moved counts diverged (server %d)\n", p);
        return 2;
      }
    }
  }
  if (arena.AssignmentDigest() != TestbedDigest(bed, graph.Vertices())) {
    std::fprintf(stderr, "arena smoke: assignment digests diverged\n");
    return 2;
  }

  for (const auto& policy : MakeArenaPolicies()) {
    RepartitionArena racer(&csr, 4, config, 99);
    const double initial = racer.cost();
    double prev = initial;
    for (int s = 0; s < 5; s++) {
      if (policy->RunSweep(&racer) == 0) {
        break;
      }
      if (racer.cost() > prev + 1e-9) {
        std::fprintf(stderr, "arena smoke: %s increased cut cost\n", policy->name().c_str());
        return 2;
      }
      prev = racer.cost();
    }
    if (!(racer.cost() < initial)) {
      std::fprintf(stderr, "arena smoke: %s made no progress\n", policy->name().c_str());
      return 2;
    }
  }
  std::fprintf(stderr, "arena smoke OK: pairwise byte-identical, %d policies reduce cost\n",
               static_cast<int>(MakeArenaPolicies().size()));
  return 0;
}

// ---------------------------------------------------------------------------
// Output & comparison (format shared with bench_partition; see EXPERIMENTS.md)
// ---------------------------------------------------------------------------

std::string ScenarioJson(const ScenarioResult& r, double speedup, bool have_ref) {
  std::ostringstream os;
  os << "    {\"name\": \"" << r.name << "\", \"events\": " << r.events
     << ", \"wall_ns\": " << r.wall_ns;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", r.events_per_sec());
  os << ", \"events_per_sec\": " << buf;
  std::snprintf(buf, sizeof(buf), "%.2f", r.ns_per_event());
  os << ", \"ns_per_event\": " << buf;
  std::snprintf(buf, sizeof(buf), "%.4f", r.allocs_per_event());
  os << ", \"allocs_per_event\": " << buf;
  std::snprintf(buf, sizeof(buf), "%.3f", r.seed_impl_speedup());
  os << ", \"speedup_vs_seed_impl\": " << buf;
  if (have_ref) {
    std::snprintf(buf, sizeof(buf), "%.3f", speedup);
    os << ", \"speedup_vs_ref\": " << buf;
  }
  os << "}";
  return os.str();
}

std::string RaceJson(const RaceRow& r) {
  std::ostringstream os;
  os << "    {\"race\": \"" << r.race << "\", \"policy\": \"" << r.policy
     << "\", \"sweeps\": " << r.sweeps << ", \"converged\": " << (r.converged ? "true" : "false");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", r.initial_cost);
  os << ", \"initial_cost\": " << buf;
  std::snprintf(buf, sizeof(buf), "%.1f", r.final_cost);
  os << ", \"final_cost\": " << buf;
  os << ", \"migrations\": " << r.migrations << ", \"wall_ns\": " << r.wall_ns << "}";
  return os.str();
}

// Same line-oriented lookup contract as bench_engine/bench_partition.
bool LookupRef(const std::string& ref_text, const std::string& name, const std::string& key,
               double* value) {
  std::istringstream in(ref_text);
  std::string line;
  const std::string name_tag = "\"name\": \"" + name + "\"";
  const std::string key_tag = "\"" + key + "\": ";
  while (std::getline(in, line)) {
    const size_t at = line.find(name_tag);
    if (at == std::string::npos) {
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

}  // namespace
}  // namespace actop

int main(int argc, char** argv) {
  using namespace actop;

  std::string json_path;
  std::string compare_path;
  bool gate = false;
  bool smoke = false;
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
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold = std::strtod(arg.c_str() + 12, nullptr);
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::strtod(arg.c_str() + 8, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_arena [--json=FILE] [--compare=FILE] [--gate] "
                   "[--threshold=0.10] [--scale=1.0] [--smoke]\n");
      return 2;
    }
  }
  if (smoke) {
    return RunSmoke();
  }

  std::string ref_text;
  if (!compare_path.empty()) {
    std::ifstream in(compare_path);
    if (!in) {
      std::fprintf(stderr, "bench_arena: cannot read reference %s\n", compare_path.c_str());
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    ref_text = os.str();
  }

  // Graphs. The clustered shape is the paper's workload model (tight actor
  // groups + a fringe of cross-group edges); churn rewires a quarter of the
  // vertices toward foreign clusters; random is the adversarial floor.
  const auto clusters_100k = static_cast<int>(12500 * scale);
  const auto clusters_1m = static_cast<int>(125000 * scale);

  Rng g100k_rng(0xa1ULL);
  const WeightedGraph g100k =
      MakeClusteredGraph(clusters_100k, 8, 1.0, clusters_100k * 2, 0.5, &g100k_rng);
  const CsrGraph csr100k = CsrGraph::FromWeighted(g100k);

  Rng g1m_rng(0xb2ULL);
  const WeightedGraph g1m =
      MakeClusteredGraph(clusters_1m, 8, 1.0, clusters_1m * 2, 0.5, &g1m_rng);
  const CsrGraph csr1m = CsrGraph::FromWeighted(g1m);

  std::vector<ScenarioResult> results;
  results.push_back(RunPairwiseRounds("pairwise_rounds_100k", g100k, csr100k, 8, 0x5eedULL));
  results.push_back(RunPairwiseRounds("pairwise_rounds_1m", g1m, csr1m, 16, 0x5eedULL));

  std::vector<RaceRow> races;
  RunRace("clustered_100k", csr100k, 8, 0x5eedULL, 40, &races);
  {
    Rng rng(0xc3ULL);
    const int n = clusters_100k * 8;
    const WeightedGraph grand = MakeRandomGraph(n, n * 4, 2.0, &rng);
    const CsrGraph csr = CsrGraph::FromWeighted(grand);
    RunRace("random_100k", csr, 8, 0x5eedULL, 40, &races);
  }
  {
    Rng rng(0xd4ULL);
    const WeightedGraph gchurn = MakeChurnedClusteredGraph(clusters_100k, 8, 1.0, 0.25, &rng);
    const CsrGraph csr = CsrGraph::FromWeighted(gchurn);
    RunRace("churned_100k", csr, 8, 0x5eedULL, 40, &races);
  }
  RunRace("clustered_1m", csr1m, 16, 0x5eedULL, 6, &races);

  // Acceptance headline: geomean in-binary speedup over the gated pairwise
  // scenarios, plus the zero-allocation steady-state requirement.
  double gate_geomean = 1.0;
  int gate_terms = 0;
  uint64_t gate_allocs = 0;
  for (const ScenarioResult& r : results) {
    gate_geomean *= r.seed_impl_speedup();
    gate_terms++;
    gate_allocs += r.allocs;
  }
  gate_geomean = gate_terms > 0 ? std::pow(gate_geomean, 1.0 / gate_terms) : 0.0;

  int regressions = 0;
  std::ostringstream body;
  body << "{\n  \"bench\": \"arena\",\n  \"schema_version\": 1,\n";
#ifdef NDEBUG
  body << "  \"assertions\": false,\n";
#else
  body << "  \"assertions\": true,\n";
#endif
  body << "  \"scale\": " << scale << ",\n  \"scenarios\": [\n";
  for (size_t i = 0; i < results.size(); i++) {
    const ScenarioResult& r = results[i];
    double ref_eps = 0.0;
    const bool have_ref =
        !ref_text.empty() && LookupRef(ref_text, r.name, "events_per_sec", &ref_eps) &&
        ref_eps > 0.0;
    const double speedup = have_ref ? r.events_per_sec() / ref_eps : 0.0;
    if (have_ref && speedup < 1.0 - threshold) {
      regressions++;
      std::fprintf(stderr, "PERF REGRESSION: %s %.0f events/s vs ref %.0f (x%.3f < %.3f)\n",
                   r.name.c_str(), r.events_per_sec(), ref_eps, speedup, 1.0 - threshold);
    }
    body << ScenarioJson(r, speedup, have_ref);
    body << (i + 1 < results.size() ? ",\n" : "\n");
    const std::string suffix = have_ref ? " (x" + std::to_string(speedup) + " vs ref)" : "";
    std::fprintf(stderr,
                 "%-20s %10.0f rounds/s  %12.0f ns/round  %8.4f allocs/round  x%6.2f vs seed%s\n",
                 r.name.c_str(), r.events_per_sec(), r.ns_per_event(), r.allocs_per_event(),
                 r.seed_impl_speedup(), suffix.c_str());
  }
  body << "  ],\n  \"races\": [\n";
  for (size_t i = 0; i < races.size(); i++) {
    body << RaceJson(races[i]);
    body << (i + 1 < races.size() ? ",\n" : "\n");
  }
  body << "  ],\n";
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", gate_geomean);
    body << "  \"geomean_speedup_vs_seed_impl\": " << buf << "\n";
  }
  body << "}\n";
  std::fprintf(stderr, "geomean speedup vs testbed (pairwise_rounds_100k, pairwise_rounds_1m): x%.2f\n",
               gate_geomean);

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
  if (gate && gate_geomean < 5.0) {
    std::fprintf(stderr, "perf gate: geomean speedup vs testbed x%.2f below the 5x floor\n",
                 gate_geomean);
    failures++;
  }
  if (gate && gate_allocs > 0) {
    std::fprintf(stderr,
                 "perf gate: arena steady-state allocated %llu times (must be 0 per round)\n",
                 static_cast<unsigned long long>(gate_allocs));
    failures++;
  }
  return failures > 0 ? 1 : 0;
}
