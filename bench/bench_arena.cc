// Repartitioning arena benchmark (third perf-gate workload).
//
// Races the flat CSR repartitioning data plane (RepartitionArena) against
// the retained map-based PartitionTestbed on million-vertex graphs, and
// races the pluggable policies (oracles/repartition_policy.h) against each
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
// Flags, output and the --compare/--gate check are the shared ones of
// bench/harness.h, plus --smoke, which runs a tiny identity + policy sanity
// pass and exits (the tier-1 CI entry). --gate also fails if the geomean
// in-binary speedup over the two pairwise scenarios falls below 5x, or if
// the arena's measured phase allocates at all.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/harness.h"
#include "oracles/partition_testbed.h"
#include "oracles/repartition_policy.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/core/csr_graph.h"
#include "src/core/repartition_arena.h"

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
  const CsrGraph csr = CsrFromWeighted(graph);
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

std::string RaceJson(const RaceRow& r) {
  return "    {\"race\": \"" + r.race + "\"" +
         JsonFields()
             .Raw("policy", "\"" + r.policy + "\"")
             .Int("sweeps", r.sweeps)
             .Raw("converged", r.converged ? "true" : "false")
             .Num("initial_cost", "%.1f", r.initial_cost)
             .Num("final_cost", "%.1f", r.final_cost)
             .Int("migrations", r.migrations)
             .Int("wall_ns", r.wall_ns)
             .str() +
         "}";
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) {
  using namespace actop;

  Flags flags;
  flags.DefineBool("smoke", false, "run the tiny identity + policy sanity pass and exit");
  BenchHarness harness("arena", argc, argv, std::move(flags));
  if (harness.flags().GetBool("smoke")) {
    return RunSmoke();
  }
  const double scale = harness.scale();

  // Graphs. The clustered shape is the paper's workload model (tight actor
  // groups + a fringe of cross-group edges); churn rewires a quarter of the
  // vertices toward foreign clusters; random is the adversarial floor.
  const auto clusters_100k = static_cast<int>(12500 * scale);
  const auto clusters_1m = static_cast<int>(125000 * scale);

  Rng g100k_rng(0xa1ULL);
  const WeightedGraph g100k =
      MakeClusteredGraph(clusters_100k, 8, 1.0, clusters_100k * 2, 0.5, &g100k_rng);
  const CsrGraph csr100k = CsrFromWeighted(g100k);

  Rng g1m_rng(0xb2ULL);
  const WeightedGraph g1m =
      MakeClusteredGraph(clusters_1m, 8, 1.0, clusters_1m * 2, 0.5, &g1m_rng);
  const CsrGraph csr1m = CsrFromWeighted(g1m);

  std::vector<ScenarioResult> results;
  results.push_back(RunPairwiseRounds("pairwise_rounds_100k", g100k, csr100k, 8, 0x5eedULL));
  results.push_back(RunPairwiseRounds("pairwise_rounds_1m", g1m, csr1m, 16, 0x5eedULL));

  std::vector<RaceRow> races;
  RunRace("clustered_100k", csr100k, 8, 0x5eedULL, 40, &races);
  {
    Rng rng(0xc3ULL);
    const int n = clusters_100k * 8;
    const WeightedGraph grand = MakeRandomGraph(n, n * 4, 2.0, &rng);
    const CsrGraph csr = CsrFromWeighted(grand);
    RunRace("random_100k", csr, 8, 0x5eedULL, 40, &races);
  }
  {
    Rng rng(0xd4ULL);
    const WeightedGraph gchurn = MakeChurnedClusteredGraph(clusters_100k, 8, 1.0, 0.25, &rng);
    const CsrGraph csr = CsrFromWeighted(gchurn);
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

  for (const ScenarioResult& r : results) {
    const std::optional<double> speedup = harness.AddScenario(
        r.name, r.events_per_sec(),
        JsonFields()
            .Int("events", r.events)
            .Int("wall_ns", r.wall_ns)
            .Num("events_per_sec", "%.0f", r.events_per_sec())
            .Num("ns_per_event", "%.2f", r.ns_per_event())
            .Num("allocs_per_event", "%.4f", r.allocs_per_event())
            .Num("speedup_vs_seed_impl", "%.3f", r.seed_impl_speedup()));
    const std::string suffix = speedup ? " (x" + std::to_string(*speedup) + " vs ref)" : "";
    std::fprintf(stderr,
                 "%-20s %10.0f rounds/s  %12.0f ns/round  %8.4f allocs/round  x%6.2f vs seed%s\n",
                 r.name.c_str(), r.events_per_sec(), r.ns_per_event(), r.allocs_per_event(),
                 r.seed_impl_speedup(), suffix.c_str());
  }
  std::string race_lines;
  for (size_t i = 0; i < races.size(); i++) {
    race_lines += RaceJson(races[i]) + (i + 1 < races.size() ? ",\n" : "\n");
  }
  harness.AddField("races", "[\n" + race_lines + "  ]");
  harness.AddField("geomean_speedup_vs_seed_impl", "%.3f", gate_geomean);
  std::fprintf(stderr, "geomean speedup vs testbed (pairwise_rounds_100k, pairwise_rounds_1m): x%.2f\n",
               gate_geomean);

  if (gate_geomean < 5.0) {
    harness.GateFailure("geomean speedup vs testbed x%.2f below the 5x floor", gate_geomean);
  }
  if (gate_allocs > 0) {
    harness.GateFailure("arena steady-state allocated %llu times (must be 0 per round)",
                        static_cast<unsigned long long>(gate_allocs));
  }
  return harness.Finish();
}
