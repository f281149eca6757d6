// Event-engine & messaging hot-path microbenchmark (the perf-gate workload).
//
// Measures the discrete-event engine itself — the substrate every figure
// bench, partitioning sweep and chaos soak in this repository runs on — in
// four steady-state scenarios plus the network messaging path:
//
//   steady_stream   H interleaved self-rescheduling event chains with a
//                   typical 3-word lambda capture (the common case across
//                   the runtime: [this, shared_ptr, small int]).
//   cancel_heavy    a standing window of pending events with a
//                   cancel+reschedule churn loop, the CpuModel::Reschedule
//                   pattern (cancel the pending completion, schedule a new
//                   one) that dominates SEDA-heavy runs.
//   periodic_heavy  hundreds of concurrent periodic ticks (timeout sweeps,
//                   controller rounds, decay timers) plus teardown.
//   net_ping_pong   envelopes hopping around a Network ring: per-message
//                   envelope allocation + delivery-event scheduling, i.e.
//                   the messaging hot path of the server runtime.
//
// Each scenario reports events/sec, ns/event and — via the counting
// allocator (bench/alloc_counter.h) — heap allocations per event in steady
// state. Flags, output and the --compare/--gate check are the shared ones
// of bench/harness.h; see EXPERIMENTS.md ("Engine microbenchmark & perf
// gate") for the schema.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/harness.h"
#include "src/common/sim_time.h"
#include "src/net/network.h"
#include "src/runtime/envelope_pool.h"
#include "src/runtime/message.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"

namespace actop {
namespace {

struct ScenarioResult {
  std::string name;
  uint64_t events = 0;    // operations driven through the engine
  uint64_t wall_ns = 0;   // wall-clock for the measured phase
  uint64_t allocs = 0;    // heap allocations during the measured phase
  uint64_t bytes = 0;     // heap bytes during the measured phase

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
};

// ---------------------------------------------------------------------------
// steady_stream: H interleaved self-rescheduling chains. The callback capture
// is three machine words — the typical size across the runtime (e.g.
// [this, env, epoch] or [this, actor, token]).
// ---------------------------------------------------------------------------

struct ChainCtx {
  Simulation* sim = nullptr;
  uint64_t executed = 0;
  uint64_t target = 0;
  uint64_t lcg = 0x243f6a8885a308d3ULL;  // cheap per-event jitter source
  uint64_t sink = 0;                     // defeats dead-code elimination
};

void ChainTick(ChainCtx* c, uint64_t salt_a, uint64_t salt_b);

void ScheduleChainTick(ChainCtx* c, uint64_t salt_a, uint64_t salt_b) {
  c->lcg = c->lcg * 6364136223846793005ULL + 1442695040888963407ULL;
  const SimDuration delay = static_cast<SimDuration>((c->lcg >> 33) & 0x3FF) + 1;
  c->sim->ScheduleAfter(delay, [c, salt_a, salt_b] { ChainTick(c, salt_a, salt_b); });
}

void ChainTick(ChainCtx* c, uint64_t salt_a, uint64_t salt_b) {
  c->sink ^= salt_a + (salt_b << 1);
  if (++c->executed < c->target) {
    ScheduleChainTick(c, salt_a ^ c->executed, salt_b + 1);
  }
}

ScenarioResult RunSteadyStream(double scale) {
  const int kChains = 512;
  const auto target = static_cast<uint64_t>(3'000'000 * scale);
  ScenarioResult out;
  out.name = "steady_stream";

  Simulation sim;
  ChainCtx ctx;
  ctx.sim = &sim;
  ctx.target = target;
  for (int i = 0; i < kChains; i++) {
    ScheduleChainTick(&ctx, 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1),
                      static_cast<uint64_t>(i));
  }
  // Warm up: reach steady state (heap at its standing size, slabs grown).
  const uint64_t warm = target / 10;
  while (ctx.executed < warm && sim.RunOne()) {
  }

  ResetAllocCounters();
  const uint64_t t0 = NowNs();
  const uint64_t before = ctx.executed;
  while (sim.RunOne()) {
  }
  out.wall_ns = NowNs() - t0;
  out.events = ctx.executed - before;
  out.allocs = AllocCount();
  out.bytes = AllocBytes();
  if (ctx.sink == 0xdeadbeef) {
    std::fprintf(stderr, "sink\n");
  }
  return out;
}

// ---------------------------------------------------------------------------
// cancel_heavy: a standing window of K pending events; each step cancels the
// oldest, schedules a replacement, and periodically dispatches one event to
// advance the clock — the CpuModel cancel+reschedule pattern.
// ---------------------------------------------------------------------------

ScenarioResult RunCancelHeavy(double scale) {
  const size_t kWindow = 4096;
  const auto steps = static_cast<uint64_t>(1'500'000 * scale);
  ScenarioResult out;
  out.name = "cancel_heavy";

  Simulation sim;
  uint64_t fired = 0;
  uint64_t lcg = 0x853c49e6748fea9bULL;
  std::vector<EventId> window(kWindow, 0);
  auto schedule_one = [&](size_t slot) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const SimDuration delay = Micros(10) + static_cast<SimDuration>((lcg >> 33) & 0xFFFF);
    window[slot] = sim.ScheduleAfter(delay, [&fired] { fired++; });
  };
  for (size_t i = 0; i < kWindow; i++) {
    schedule_one(i);
  }
  // Warm up one full window pass.
  for (size_t i = 0; i < kWindow; i++) {
    sim.Cancel(window[i]);
    schedule_one(i);
  }

  ResetAllocCounters();
  const uint64_t t0 = NowNs();
  uint64_t ops = 0;
  for (uint64_t step = 0; step < steps; step++) {
    const size_t slot = static_cast<size_t>(step) % kWindow;
    sim.Cancel(window[slot]);
    schedule_one(slot);
    ops += 2;
    if ((step & 7) == 0) {
      sim.RunOne();
      ops++;
    }
  }
  out.wall_ns = NowNs() - t0;
  out.events = ops;
  out.allocs = AllocCount();
  out.bytes = AllocBytes();
  return out;
}

// ---------------------------------------------------------------------------
// periodic_heavy: P concurrent periodic ticks with staggered periods, plus
// cancellation of all of them at the end (controller stop / agent teardown).
// ---------------------------------------------------------------------------

ScenarioResult RunPeriodicHeavy(double scale) {
  const int kPeriodics = 512;
  ScenarioResult out;
  out.name = "periodic_heavy";

  Simulation sim;
  uint64_t ticks = 0;
  std::vector<EventId> ids;
  ids.reserve(kPeriodics);
  for (int i = 0; i < kPeriodics; i++) {
    const SimDuration period = Micros(100 + 7 * i);
    ids.push_back(sim.SchedulePeriodic(period, [&ticks] { ticks++; }));
  }
  // Warm up.
  sim.RunUntil(Millis(20));

  ResetAllocCounters();
  const uint64_t t0 = NowNs();
  const uint64_t before = ticks;
  sim.RunUntil(Millis(20) + static_cast<SimDuration>(MillisF(400.0 * scale)));
  for (EventId id : ids) {
    sim.CancelPeriodic(id);
  }
  sim.RunUntil(sim.now() + Seconds(1));  // drain any final ticks
  out.wall_ns = NowNs() - t0;
  out.events = ticks - before;
  out.allocs = AllocCount();
  out.bytes = AllocBytes();
  return out;
}

// ---------------------------------------------------------------------------
// net_ping_pong: envelopes hopping around a Network ring. Each delivery
// allocates a response envelope and forwards it — the per-message cost of
// the runtime's messaging path (envelope + delivery event).
// ---------------------------------------------------------------------------

struct RingCtx {
  Simulation* sim = nullptr;
  Network* net = nullptr;
  std::vector<NodeId> nodes;
  uint64_t delivered = 0;
  uint64_t budget = 0;
};

ScenarioResult RunNetPingPong(double scale) {
  const int kNodes = 8;
  const int kInFlight = 64;
  ScenarioResult out;
  out.name = "net_ping_pong";

  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Network net(&engine, NetworkConfig{});
  RingCtx ctx;
  ctx.sim = &sim;
  ctx.net = &net;
  ctx.budget = static_cast<uint64_t>(800'000 * scale);

  for (int i = 0; i < kNodes; i++) {
    const int self = i;
    ctx.nodes.push_back(net.AddNode([&ctx, self](NodeId, uint32_t bytes, EnvelopePtr) {
      ctx.delivered++;
      if (ctx.delivered >= ctx.budget) {
        return;
      }
      auto next = MakeEnvelope();
      next->kind = MessageKind::kCall;
      next->target = MakeActorId(1, ctx.delivered);
      next->payload_bytes = bytes;
      const NodeId dest = ctx.nodes[static_cast<size_t>((self + 1) % kNodes)];
      ctx.net->Send(ctx.nodes[static_cast<size_t>(self)], dest, bytes, std::move(next));
    }));
  }
  for (int m = 0; m < kInFlight; m++) {
    auto env = MakeEnvelope();
    env->kind = MessageKind::kCall;
    env->payload_bytes = 128;
    net.Send(ctx.nodes[0], ctx.nodes[static_cast<size_t>(m % kNodes)], 128, std::move(env));
  }
  // Warm up.
  const uint64_t warm = ctx.budget / 10;
  while (ctx.delivered < warm && sim.RunOne()) {
  }

  ResetAllocCounters();
  const uint64_t t0 = NowNs();
  const uint64_t before = ctx.delivered;
  while (sim.RunOne()) {
  }
  out.wall_ns = NowNs() - t0;
  out.events = ctx.delivered - before;
  out.allocs = AllocCount();
  out.bytes = AllocBytes();
  return out;
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) {
  using namespace actop;

  BenchHarness harness("engine", argc, argv);
  const double scale = harness.scale();
  std::vector<ScenarioResult> results;
  results.push_back(RunSteadyStream(scale));
  results.push_back(RunCancelHeavy(scale));
  results.push_back(RunPeriodicHeavy(scale));
  results.push_back(RunNetPingPong(scale));

  for (const ScenarioResult& r : results) {
    const std::optional<double> speedup = harness.AddScenario(
        r.name, r.events_per_sec(),
        JsonFields()
            .Int("events", r.events)
            .Int("wall_ns", r.wall_ns)
            .Num("events_per_sec", "%.0f", r.events_per_sec())
            .Num("ns_per_event", "%.2f", r.ns_per_event())
            .Num("allocs_per_event", "%.4f", r.allocs_per_event())
            .Num("bytes_per_event", "%.1f", r.bytes_per_event()));
    const std::string suffix = speedup ? " (x" + std::to_string(*speedup) + " vs ref)" : "";
    std::fprintf(stderr, "%-16s %12.0f events/s  %8.2f ns/event  %8.4f allocs/event%s\n",
                 r.name.c_str(), r.events_per_sec(), r.ns_per_event(), r.allocs_per_event(),
                 suffix.c_str());
  }
  return harness.Finish();
}
