// Partitioning data-plane microbenchmark (second perf-gate workload).
//
// Measures the partitioning hot path — the edge sampler and the pairwise
// exchange planner, here in its LocalGraphView form — and, unlike
// bench_engine, measures each scenario TWICE in the same binary: once with
// the optimized implementations (Stream-Summary SpaceSaving, indexed
// ExchangeHeap + scratch-buffer BuildPeerPlans from
// oracles/local_graph_planner.h) and once with the retained seed
// implementations (oracles/space_saving_reference.h,
// oracles/pairwise_partition_reference.h). The two are proven
// decision-identical by tests/core/space_saving_fuzz_test.cc and
// exchange_golden_test.cc, so the in-binary "speedup_vs_seed_impl" is a pure
// data-structure comparison on identical inputs producing identical outputs.
//
//   observe_stream   steady-state Observe() churn on a full sampler: skewed
//                    (power-law-ish) keys over a key space far larger than
//                    capacity, so most observes evict. The PartitionAgent
//                    edge-monitor hot loop. Must run allocation-free.
//   decay_churn      the agent's decay timer: bursts of observes punctuated
//                    by Decay() halving/rebuild on a full sampler.
//   plan_build       BuildPeerPlans over a 16-server power-law local view —
//                    the per-round planning cost on the initiating side.
//   exchange_round   a full pairwise round: BuildPeerPlans on p, ship the
//                    plan toward q, DecideExchange on q (greedy joint subset
//                    selection with both heaps) — Alg. 1 end to end.
//
// Each scenario reports events/sec, ns/event and — via the counting
// allocator (bench/alloc_counter.h) — heap allocations per event in steady
// state, plus speedup_vs_seed_impl. Flags, output and the --compare/--gate
// check are the shared ones of bench/harness.h; see EXPERIMENTS.md
// ("Partition microbenchmark & perf gate"). --gate also fails if the
// geomean in-binary speedup over {observe_stream, exchange_round} falls
// below 1.5x (the acceptance floor is 2x on the reference machine; 1.5x
// leaves headroom for noisy CI boxes while still catching a lost rewrite).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/harness.h"
#include "oracles/local_graph_planner.h"
#include "oracles/pairwise_partition_reference.h"
#include "oracles/space_saving_reference.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/core/space_saving.h"

namespace actop {
namespace {

struct ScenarioResult {
  std::string name;
  uint64_t events = 0;    // operations driven through the optimized path
  uint64_t wall_ns = 0;   // wall-clock for the optimized measured phase
  uint64_t allocs = 0;    // heap allocations during the optimized phase
  uint64_t bytes = 0;     // heap bytes during the optimized phase
  uint64_t ref_wall_ns = 0;  // wall-clock for the seed-impl phase (same work)

  double events_per_sec() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns);
  }
  double ns_per_event() const {
    return events == 0 ? 0.0 : static_cast<double>(wall_ns) / static_cast<double>(events);
  }
  double allocs_per_event() const {
    return events == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(events);
  }
  double bytes_per_event() const {
    return events == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(events);
  }
  // Both phases do identical work, so the speedup is the wall-clock ratio.
  double seed_impl_speedup() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(ref_wall_ns) / static_cast<double>(wall_ns);
  }
};

uint64_t g_sink = 0;  // defeats dead-code elimination across scenarios

// ---------------------------------------------------------------------------
// Shared input generators. Deterministic (seeded Rng) so the optimized and
// seed-impl phases of every scenario consume byte-identical inputs.
// ---------------------------------------------------------------------------

// Skewed key stream over a key space much larger than any sampler capacity:
// squaring a uniform draw concentrates mass on small keys (heavy hitters)
// while keeping a long eviction-forcing tail — the same shape the edge
// monitor sees from power-law actor communication.
std::vector<uint64_t> MakeKeyStream(size_t n, uint64_t seed) {
  constexpr uint64_t kKeySpace = 1 << 20;
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) {
    const uint64_t raw = rng.NextBounded(kKeySpace);
    k = raw * raw / kKeySpace;
  }
  return keys;
}

// Power-law LocalGraphView: `sampled` local vertices with degrees skewed
// toward 1 but reaching 64, edges split between local peers and uniformly
// chosen remote servers, integer weights (exact in double, so both
// implementations sum them bit-identically in any association).
LocalGraphView MakePowerLawView(ServerId self, int num_servers, int64_t per_server, int sampled,
                                uint64_t seed) {
  Rng rng(seed);
  LocalGraphView view;
  view.self = self;
  view.num_local_vertices = per_server;
  const auto vid = [](ServerId s, uint64_t i) {
    return static_cast<VertexId>(s) * 1'000'000ULL + i;
  };
  const auto n = static_cast<uint64_t>(per_server);
  for (int i = 0; i < sampled; i++) {
    const VertexId me = vid(self, rng.NextBounded(n));
    auto& adj = view.adjacency[me];
    const double u = rng.NextDouble();
    const int degree = 1 + static_cast<int>(63.0 * u * u * u * u);
    for (int e = 0; e < degree; e++) {
      VertexId other;
      if (num_servers > 1 && rng.NextBool(0.5)) {
        const auto hop = 1 + static_cast<ServerId>(rng.NextBounded(
                                 static_cast<uint64_t>(num_servers - 1)));
        const ServerId s = (self + hop) % num_servers;
        other = vid(s, rng.NextBounded(n));
        view.location[other] = s;
      } else {
        other = vid(self, rng.NextBounded(n));
      }
      if (other == me) {
        continue;
      }
      adj[other] += 1.0 + static_cast<double>(rng.NextBounded(16));
    }
  }
  return view;
}

size_t CountEdges(const LocalGraphView& view) {
  size_t edges = 0;
  for (const auto& [v, adj] : view.adjacency) {
    edges += adj.size();
  }
  return edges;
}

// ---------------------------------------------------------------------------
// observe_stream: steady-state Observe() on a full sampler. The measured
// phase of the optimized sketch must be allocation-free: the Stream-Summary
// slab, bucket free list, and FlatHashMap churn in place once warm.
// ---------------------------------------------------------------------------

template <typename Sketch>
uint64_t TimeObserves(Sketch* sketch, const std::vector<uint64_t>& keys, size_t from, size_t to) {
  const uint64_t t0 = NowNs();
  for (size_t i = from; i < to; i++) {
    sketch->Observe(keys[i]);
  }
  return NowNs() - t0;
}

ScenarioResult RunObserveStream(double scale) {
  constexpr size_t kCapacity = 8192;
  const auto ops = static_cast<size_t>(4'000'000 * scale);
  const size_t warm = ops / 10;
  ScenarioResult out;
  out.name = "observe_stream";

  const std::vector<uint64_t> keys = MakeKeyStream(ops, 0x0b5e7fe5ULL);

  SpaceSaving<uint64_t> opt(kCapacity);
  TimeObserves(&opt, keys, 0, warm);
  ResetAllocCounters();
  out.wall_ns = TimeObserves(&opt, keys, warm, ops);
  out.events = ops - warm;
  out.allocs = AllocCount();
  out.bytes = AllocBytes();
  g_sink ^= opt.total_observed() + opt.size();

  SpaceSavingReference<uint64_t> ref(kCapacity);
  TimeObserves(&ref, keys, 0, warm);
  out.ref_wall_ns = TimeObserves(&ref, keys, warm, ops);
  g_sink ^= ref.total_observed() + ref.size();
  return out;
}

// ---------------------------------------------------------------------------
// decay_churn: the PartitionAgent decay timer against a full sampler —
// bursts of observes punctuated by Decay(), which the seed rebuilt through a
// fresh std::map and the rewrite relinks in place.
// ---------------------------------------------------------------------------

template <typename Sketch>
uint64_t TimeDecayCycles(Sketch* sketch, const std::vector<uint64_t>& keys, size_t cycles,
                         size_t burst) {
  const uint64_t t0 = NowNs();
  size_t at = 0;
  for (size_t c = 0; c < cycles; c++) {
    for (size_t i = 0; i < burst; i++) {
      sketch->Observe(keys[at]);
      at = at + 1 == keys.size() ? 0 : at + 1;
    }
    sketch->Decay();
  }
  return NowNs() - t0;
}

ScenarioResult RunDecayChurn(double scale) {
  constexpr size_t kCapacity = 4096;
  constexpr size_t kBurst = 2 * kCapacity;
  const auto cycles = static_cast<size_t>(400 * scale);
  constexpr size_t kWarmCycles = 4;
  ScenarioResult out;
  out.name = "decay_churn";

  const std::vector<uint64_t> keys = MakeKeyStream(kBurst * 16, 0xdecafULL);

  SpaceSaving<uint64_t> opt(kCapacity);
  TimeDecayCycles(&opt, keys, kWarmCycles, kBurst);
  ResetAllocCounters();
  out.wall_ns = TimeDecayCycles(&opt, keys, cycles, kBurst);
  out.events = cycles * (kBurst + 1);
  out.allocs = AllocCount();
  out.bytes = AllocBytes();
  g_sink ^= opt.total_observed() + opt.size();

  SpaceSavingReference<uint64_t> ref(kCapacity);
  TimeDecayCycles(&ref, keys, kWarmCycles, kBurst);
  out.ref_wall_ns = TimeDecayCycles(&ref, keys, cycles, kBurst);
  g_sink ^= ref.total_observed() + ref.size();
  return out;
}

// ---------------------------------------------------------------------------
// plan_build: BuildPeerPlans over a 16-server power-law view. Events are
// edge-scans (iterations x edges): the planner's work is linear in the
// sampled edge set, so this is its natural unit cost.
// ---------------------------------------------------------------------------

template <typename Fn>
uint64_t TimePlanBuilds(Fn&& build, const LocalGraphView& view, const PairwiseConfig& config,
                        size_t iterations) {
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < iterations; i++) {
    const std::vector<PeerPlan> plans = build(view, config);
    g_sink ^= plans.size() + (plans.empty() ? 0 : plans.front().candidates.size());
  }
  return NowNs() - t0;
}

ScenarioResult RunPlanBuild(double scale) {
  const auto iterations = static_cast<size_t>(300 * scale);
  constexpr size_t kWarm = 3;
  ScenarioResult out;
  out.name = "plan_build";

  const LocalGraphView view = MakePowerLawView(/*self=*/0, /*num_servers=*/16,
                                               /*per_server=*/4000, /*sampled=*/3000, 0x91a4ULL);
  PairwiseConfig config;
  config.candidate_set_size = 64;
  config.balance_delta = 16;

  const auto opt_build = [](const LocalGraphView& v, const PairwiseConfig& c) {
    return BuildPeerPlans(v, c);
  };
  const auto ref_build = [](const LocalGraphView& v, const PairwiseConfig& c) {
    return seedref::BuildPeerPlans(v, c);
  };

  TimePlanBuilds(opt_build, view, config, kWarm);
  ResetAllocCounters();
  out.wall_ns = TimePlanBuilds(opt_build, view, config, iterations);
  out.events = iterations * CountEdges(view);
  out.allocs = AllocCount();
  out.bytes = AllocBytes();

  TimePlanBuilds(ref_build, view, config, kWarm);
  out.ref_wall_ns = TimePlanBuilds(ref_build, view, config, iterations);
  return out;
}

// ---------------------------------------------------------------------------
// exchange_round: Alg. 1 end to end between two servers — p builds its plan,
// ships it, q runs the greedy joint subset selection. One event = one round.
// ---------------------------------------------------------------------------

template <typename PlanFn, typename DecideFn>
uint64_t TimeExchangeRounds(PlanFn&& plan_fn, DecideFn&& decide_fn, const LocalGraphView& p_view,
                            const LocalGraphView& q_view, const PairwiseConfig& config,
                            size_t rounds) {
  const uint64_t t0 = NowNs();
  for (size_t r = 0; r < rounds; r++) {
    const std::vector<PeerPlan> plans = plan_fn(p_view, config);
    const PeerPlan* toward_q = nullptr;
    for (const PeerPlan& plan : plans) {
      if (plan.peer == q_view.self) {
        toward_q = &plan;
        break;
      }
    }
    if (toward_q == nullptr) {
      continue;
    }
    ExchangeRequest request;
    request.from = p_view.self;
    request.from_num_vertices = p_view.num_local_vertices;
    request.candidates = toward_q->candidates;
    const ExchangeDecision decision = decide_fn(q_view, request, config);
    g_sink ^= decision.accepted.size() + decision.counter_offer.size();
  }
  return NowNs() - t0;
}

ScenarioResult RunExchangeRound(double scale) {
  const auto rounds = static_cast<size_t>(300 * scale);
  constexpr size_t kWarm = 3;
  ScenarioResult out;
  out.name = "exchange_round";

  const LocalGraphView p_view = MakePowerLawView(/*self=*/0, /*num_servers=*/2,
                                                 /*per_server=*/3000, /*sampled=*/2500, 0xabcdULL);
  const LocalGraphView q_view = MakePowerLawView(/*self=*/1, /*num_servers=*/2,
                                                 /*per_server=*/3000, /*sampled=*/2500, 0xef01ULL);
  PairwiseConfig config;
  config.candidate_set_size = 64;
  config.balance_delta = 16;

  const auto opt_plan = [](const LocalGraphView& v, const PairwiseConfig& c) {
    return BuildPeerPlans(v, c);
  };
  const auto opt_decide = [](const LocalGraphView& v, const ExchangeRequest& r,
                             const PairwiseConfig& c) { return DecideExchange(v, r, c); };
  const auto ref_plan = [](const LocalGraphView& v, const PairwiseConfig& c) {
    return seedref::BuildPeerPlans(v, c);
  };
  const auto ref_decide = [](const LocalGraphView& v, const ExchangeRequest& r,
                             const PairwiseConfig& c) { return seedref::DecideExchange(v, r, c); };

  // One-time sanity: both paths must reach identical decisions on this
  // instance (the golden/fuzz tests prove this broadly; this catches a
  // mis-built benchmark input before anyone trusts the numbers).
  {
    const std::vector<PeerPlan> plans = BuildPeerPlans(p_view, config);
    const std::vector<PeerPlan> ref_plans = seedref::BuildPeerPlans(p_view, config);
    bool toward_q = false;
    for (const PeerPlan& plan : plans) {
      toward_q |= plan.peer == q_view.self && !plan.candidates.empty();
    }
    if (!toward_q || plans.size() != ref_plans.size()) {
      std::fprintf(stderr, "bench_partition: degenerate exchange_round instance\n");
      std::exit(2);
    }
    ExchangeRequest request;
    request.from = p_view.self;
    request.from_num_vertices = p_view.num_local_vertices;
    request.candidates = plans.front().candidates;
    const ExchangeDecision opt = DecideExchange(q_view, request, config);
    const ExchangeDecision ref = seedref::DecideExchange(q_view, request, config);
    if (opt.accepted != ref.accepted ||
        opt.counter_offer.size() != ref.counter_offer.size()) {
      std::fprintf(stderr, "bench_partition: optimized/seed decisions diverged\n");
      std::exit(2);
    }
  }

  TimeExchangeRounds(opt_plan, opt_decide, p_view, q_view, config, kWarm);
  ResetAllocCounters();
  out.wall_ns = TimeExchangeRounds(opt_plan, opt_decide, p_view, q_view, config, rounds);
  out.events = rounds;
  out.allocs = AllocCount();
  out.bytes = AllocBytes();

  TimeExchangeRounds(ref_plan, ref_decide, p_view, q_view, config, kWarm);
  out.ref_wall_ns = TimeExchangeRounds(ref_plan, ref_decide, p_view, q_view, config, rounds);
  return out;
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) {
  using namespace actop;

  BenchHarness harness("partition", argc, argv);
  const double scale = harness.scale();
  std::vector<ScenarioResult> results;
  results.push_back(RunObserveStream(scale));
  results.push_back(RunDecayChurn(scale));
  results.push_back(RunPlanBuild(scale));
  results.push_back(RunExchangeRound(scale));

  // Acceptance headline: geomean in-binary speedup over the two scenarios
  // the issue gates (observe-heavy sampling and the full exchange round).
  double gate_geomean = 1.0;
  int gate_terms = 0;
  for (const ScenarioResult& r : results) {
    if (r.name == "observe_stream" || r.name == "exchange_round") {
      gate_geomean *= r.seed_impl_speedup();
      gate_terms++;
    }
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
            .Num("bytes_per_event", "%.1f", r.bytes_per_event())
            .Num("speedup_vs_seed_impl", "%.3f", r.seed_impl_speedup()));
    const std::string suffix = speedup ? " (x" + std::to_string(*speedup) + " vs ref)" : "";
    std::fprintf(stderr,
                 "%-16s %12.0f events/s  %10.2f ns/event  %8.4f allocs/event  x%5.2f vs seed%s\n",
                 r.name.c_str(), r.events_per_sec(), r.ns_per_event(), r.allocs_per_event(),
                 r.seed_impl_speedup(), suffix.c_str());
  }
  harness.AddField("geomean_speedup_vs_seed_impl", "%.3f", gate_geomean);
  std::fprintf(stderr, "geomean speedup vs seed impls (observe_stream, exchange_round): x%.2f\n",
               gate_geomean);
  if (g_sink == 0xdeadbeef) {
    std::fprintf(stderr, "sink\n");
  }
  if (gate_geomean < 1.5) {
    harness.GateFailure("geomean speedup vs seed impls x%.2f below the 1.5x floor", gate_geomean);
  }
  return harness.Finish();
}
