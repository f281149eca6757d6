// ShardedEngine semantics: serial delegation, conservative window execution,
// rail ordering, and fixed-shard-count determinism.
//
// These tests drive the engine directly (no network/cluster on top), so each
// property is pinned at the layer that owns it: the byte-identical
// shards == 1 contract (where a rail task is an ordinary shard-0 event), the
// parallel "rail task at R runs after every event < R and before any event
// at R" cut semantics, and run-to-run reproducibility of parallel window
// execution. Events only touch their own shard's state (the
// thread-per-shard pinning contract), so the traces below need no locks.

#include "src/sim/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/counter_rng.h"
#include "src/common/sim_time.h"
#include "src/sim/simulation.h"

namespace actop {
namespace {

struct TraceEntry {
  SimTime when = 0;
  int label = 0;

  bool operator==(const TraceEntry& o) const { return when == o.when && label == o.label; }
};

// Schedules the same jittered self-rescheduling chains on a plain Simulation
// and on an engine shard; used to compare execution traces.
void ScheduleChain(Simulation* sim, std::vector<TraceEntry>* trace, int label, SimTime start,
                   SimDuration step, SimTime stop) {
  sim->ScheduleAt(start, [sim, trace, label, step, stop, next = start]() mutable {
    trace->push_back({sim->now(), label});
    next += step;
    if (next <= stop) {
      ScheduleChain(sim, trace, label, next, step, stop);
    }
  });
}

TEST(ShardedEngineTest, SerialDelegatesToSimulation) {
  // Same schedule on a bare Simulation and on a 1-shard engine: identical
  // traces, identical clock movement, identical event counts.
  std::vector<TraceEntry> plain_trace;
  Simulation plain;
  ScheduleChain(&plain, &plain_trace, 1, Micros(10), Micros(130), Millis(2));
  ScheduleChain(&plain, &plain_trace, 2, Micros(50), Micros(70), Millis(2));
  const uint64_t plain_events = plain.RunUntil(Millis(2));

  std::vector<TraceEntry> engine_trace;
  ShardedEngine engine(ShardedEngineConfig{.shards = 1});
  ScheduleChain(&engine.sim(), &engine_trace, 1, Micros(10), Micros(130), Millis(2));
  ScheduleChain(&engine.sim(), &engine_trace, 2, Micros(50), Micros(70), Millis(2));
  const uint64_t engine_events = engine.RunUntil(Millis(2));

  EXPECT_EQ(plain_trace, engine_trace);
  EXPECT_EQ(plain_events, engine_events);
  EXPECT_EQ(engine.now(), Millis(2));
  EXPECT_EQ(engine.sim().now(), Millis(2));
  EXPECT_EQ(engine.events_executed(), plain.events_executed());
}

TEST(ShardedEngineTest, OneShardRailTaskIsAShardZeroEvent) {
  // With one shard a rail task is an ordinary shard-0 event: it runs in
  // scheduling order among the events at its instant, exactly as the same
  // task scheduled with sim().ScheduleAt, and counts as an executed event.
  const SimTime r = Micros(500);
  auto run = [r](bool on_rail) {
    ShardedEngine engine(ShardedEngineConfig{.shards = 1});
    Simulation& sim = engine.sim();
    std::vector<std::string> order;
    sim.ScheduleAt(r - 1, [&] { order.push_back("before"); });
    sim.ScheduleAt(r, [&] { order.push_back("at, scheduled first"); });
    auto task = [&] {
      order.push_back("task");
      sim.ScheduleAt(r, [&] { order.push_back("scheduled by the task"); });
    };
    if (on_rail) {
      engine.ScheduleRailAt(r, task);
    } else {
      sim.ScheduleAt(r, task);
    }
    sim.ScheduleAt(r, [&] { order.push_back("at, scheduled last"); });
    sim.ScheduleAt(r + 1, [&] { order.push_back("after"); });
    EXPECT_EQ(engine.RunUntil(Millis(1)), 6u);
    EXPECT_EQ(engine.now(), Millis(1));
    return order;
  };
  const std::vector<std::string> rail = run(true);
  EXPECT_EQ(rail, run(false));
  EXPECT_EQ(rail, (std::vector<std::string>{"before", "at, scheduled first", "task",
                                            "at, scheduled last", "scheduled by the task",
                                            "after"}));
}

TEST(ShardedEngineTest, RailTasksAtEqualTimesRunInScheduleOrder) {
  ShardedEngine engine(ShardedEngineConfig{.shards = 1});
  std::vector<int> order;
  engine.ScheduleRailAt(Micros(100), [&] { order.push_back(1); });
  engine.ScheduleRailAt(Micros(100), [&] { order.push_back(2); });
  engine.ScheduleRailAt(Micros(100), [&] { order.push_back(3); });
  engine.RunUntil(Micros(200));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ShardedEngineTest, TwoShardRailTasksAtEqualTimesRunInScheduleOrder) {
  // On the coordinator rail, including a task that a rail task schedules at
  // its own instant: it runs after the tasks already pending there, still
  // before any shard event at that instant.
  ShardedEngine engine(ShardedEngineConfig{.shards = 2});
  std::vector<int> order;
  const SimTime r = Micros(100);
  engine.shard(1).ScheduleAt(r, [&] { order.push_back(0); });
  engine.ScheduleRailAt(r, [&] {
    order.push_back(1);
    engine.ScheduleRailAt(r, [&] { order.push_back(4); });
  });
  engine.ScheduleRailAt(r, [&] { order.push_back(2); });
  engine.ScheduleRailAt(r, [&] { order.push_back(3); });
  EXPECT_EQ(engine.RunUntil(Micros(200)), 1u);  // rail tasks are not shard events
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 0}));
  EXPECT_EQ(engine.now(), Micros(200));
}

TEST(ShardedEngineTest, CancelRail) {
  ShardedEngine engine(ShardedEngineConfig{.shards = 1});
  int fired = 0;
  const uint64_t keep = engine.ScheduleRailAt(Micros(100), [&] { fired++; });
  const uint64_t cancel = engine.ScheduleRailAt(Micros(100), [&] { fired += 100; });
  EXPECT_TRUE(engine.CancelRail(cancel));
  EXPECT_FALSE(engine.CancelRail(cancel));  // double cancel
  engine.RunUntil(Millis(1));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.CancelRail(keep));  // already fired
}

TEST(ShardedEngineTest, TwoShardCancelRail) {
  ShardedEngine engine(ShardedEngineConfig{.shards = 2});
  int fired = 0;
  EXPECT_FALSE(engine.CancelRail(0));  // never minted
  const uint64_t keep = engine.ScheduleRailAt(Micros(100), [&] { fired++; });
  const uint64_t cancel = engine.ScheduleRailAt(Micros(100), [&] { fired += 100; });
  EXPECT_TRUE(engine.CancelRail(cancel));
  EXPECT_FALSE(engine.CancelRail(cancel));  // double cancel
  engine.RunUntil(Millis(1));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.CancelRail(keep));  // already fired

  // Later tasks reuse the freed slots (an EventId's low 32 bits are its
  // slot); the stale handles must not reach them.
  const uint64_t later = engine.ScheduleRailAt(Millis(2), [&] { fired += 10; });
  const uint64_t last = engine.ScheduleRailAt(Millis(2), [&] { fired += 1000; });
  auto slot = [](uint64_t id) { return static_cast<uint32_t>(id); };
  const std::vector<uint32_t> freed = {slot(keep), slot(cancel)};
  const std::vector<uint32_t> reused = {slot(later), slot(last)};
  EXPECT_TRUE(std::is_permutation(reused.begin(), reused.end(), freed.begin()));
  EXPECT_FALSE(engine.CancelRail(keep));
  EXPECT_FALSE(engine.CancelRail(cancel));
  EXPECT_TRUE(engine.CancelRail(last));
  engine.RunUntil(Millis(3));
  EXPECT_EQ(fired, 11);
}

TEST(ShardedEngineTest, ParallelShardsRunTheirOwnEventsInTimeOrder) {
  constexpr int kShards = 4;
  ShardedEngine engine(ShardedEngineConfig{.shards = kShards});
  std::vector<std::vector<TraceEntry>> traces(kShards);
  for (int s = 0; s < kShards; s++) {
    ScheduleChain(&engine.shard(s), &traces[static_cast<size_t>(s)], s, Micros(10 + s),
                  Micros(90 + 13 * s), Millis(5));
  }
  const uint64_t executed = engine.RunUntil(Millis(5));

  uint64_t total = 0;
  for (int s = 0; s < kShards; s++) {
    const auto& trace = traces[static_cast<size_t>(s)];
    ASSERT_FALSE(trace.empty()) << "shard " << s;
    for (size_t i = 1; i < trace.size(); i++) {
      EXPECT_LE(trace[i - 1].when, trace[i].when) << "shard " << s;
    }
    EXPECT_EQ(engine.shard(s).now(), Millis(5)) << "shard " << s;
    total += trace.size();
  }
  EXPECT_EQ(total, executed);
  EXPECT_EQ(engine.now(), Millis(5));
}

TEST(ShardedEngineTest, ParallelRailObservesAConsistentCut) {
  // Every shard runs a 10 µs metronome bumping its own counter. A rail task
  // at R must observe exactly the events strictly before R on EVERY shard:
  // the count of sub-R metronome ticks is known in closed form, so the rail
  // assertion is exact, not a race-prone inequality.
  constexpr int kShards = 4;
  ShardedEngine engine(ShardedEngineConfig{.shards = kShards});
  std::vector<std::vector<TraceEntry>> traces(kShards);
  for (int s = 0; s < kShards; s++) {
    // Ticks at 10, 20, ..., 5000 µs.
    ScheduleChain(&engine.shard(s), &traces[static_cast<size_t>(s)], s, Micros(10), Micros(10),
                  Millis(5));
  }
  const SimTime r = Micros(2505);  // between ticks: 250 ticks strictly before
  std::vector<size_t> seen(kShards, 0);
  engine.ScheduleRailAt(r, [&] {
    for (int s = 0; s < kShards; s++) {
      seen[static_cast<size_t>(s)] = traces[static_cast<size_t>(s)].size();
    }
  });
  engine.RunUntil(Millis(5));
  for (int s = 0; s < kShards; s++) {
    EXPECT_EQ(seen[static_cast<size_t>(s)], 250u) << "shard " << s;
  }
}

TEST(ShardedEngineTest, ParallelRailOnTickBoundaryRunsBeforeThatTick) {
  // Rail exactly ON an event timestamp: the rail runs first (events < R
  // complete, events == R have not started).
  constexpr int kShards = 2;
  ShardedEngine engine(ShardedEngineConfig{.shards = kShards});
  std::vector<std::vector<TraceEntry>> traces(kShards);
  for (int s = 0; s < kShards; s++) {
    ScheduleChain(&engine.shard(s), &traces[static_cast<size_t>(s)], s, Micros(100), Micros(100),
                  Millis(1));
  }
  const SimTime r = Micros(500);  // ticks at 100..400 are strictly before
  std::vector<size_t> seen(kShards, 0);
  engine.ScheduleRailAt(r, [&] {
    for (int s = 0; s < kShards; s++) {
      seen[static_cast<size_t>(s)] = traces[static_cast<size_t>(s)].size();
    }
  });
  engine.RunUntil(Millis(1));
  for (int s = 0; s < kShards; s++) {
    EXPECT_EQ(seen[static_cast<size_t>(s)], 4u) << "shard " << s;
  }
}

// Jittered chain whose next step depends on a per-shard CounterRng draw —
// the event *pattern* itself is pseudo-random, so identical traces across
// two runs demonstrate real determinism, not a trivial fixed schedule.
void ScheduleJitterChain(Simulation* sim, CounterRng* rng, std::vector<TraceEntry>* trace,
                         int label, SimTime start, SimTime stop) {
  sim->ScheduleAt(start, [sim, rng, trace, label, stop] {
    trace->push_back({sim->now(), label});
    const SimTime next =
        sim->now() + Micros(5) + static_cast<SimDuration>(rng->NextBounded(200));
    if (next <= stop) {
      ScheduleJitterChain(sim, rng, trace, label, next, stop);
    }
  });
}

TEST(ShardedEngineTest, ParallelRunsAreDeterministicForFixedShardCount) {
  constexpr int kShards = 4;
  auto run = [&] {
    ShardedEngine engine(ShardedEngineConfig{.shards = kShards});
    std::vector<std::vector<TraceEntry>> traces(kShards);
    std::vector<CounterRng> rngs;
    for (int s = 0; s < kShards; s++) {
      rngs.emplace_back(/*seed=*/99, /*stream=*/static_cast<uint64_t>(s));
    }
    for (int s = 0; s < kShards; s++) {
      ScheduleJitterChain(&engine.shard(s), &rngs[static_cast<size_t>(s)],
                          &traces[static_cast<size_t>(s)], s, Micros(10), Millis(4));
      ScheduleJitterChain(&engine.shard(s), &rngs[static_cast<size_t>(s)],
                          &traces[static_cast<size_t>(s)], 100 + s, Micros(25), Millis(4));
    }
    engine.RunUntil(Millis(4));
    return traces;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  // The jitter actually produced events (the determinism check is non-vacuous).
  size_t total = 0;
  for (const auto& t : a) {
    total += t.size();
  }
  EXPECT_GT(total, 100u);
}

TEST(ShardedEngineTest, ExchangeHookRunsOncePerShardPerWindow) {
  constexpr int kShards = 3;
  ShardedEngine engine(ShardedEngineConfig{.shards = kShards});
  std::vector<std::atomic<uint64_t>> calls(kShards);
  engine.set_exchange_hook([&](int shard) {
    calls[static_cast<size_t>(shard)].fetch_add(1, std::memory_order_relaxed);
  });
  uint64_t barriers = 0;
  engine.set_barrier_hook([&] { barriers++; });
  // Keep every shard busy so windows keep stepping.
  std::vector<std::vector<TraceEntry>> traces(kShards);
  for (int s = 0; s < kShards; s++) {
    ScheduleChain(&engine.shard(s), &traces[static_cast<size_t>(s)], s, Micros(20), Micros(40),
                  Millis(2));
  }
  engine.RunUntil(Millis(2));
  const uint64_t first = calls[0].load(std::memory_order_relaxed);
  EXPECT_GT(first, 0u);
  for (int s = 1; s < kShards; s++) {
    EXPECT_EQ(calls[static_cast<size_t>(s)].load(std::memory_order_relaxed), first)
        << "shard " << s;
  }
  EXPECT_EQ(barriers, first);
}

TEST(ShardedEngineTest, IdleShardsJumpToTheDeadline) {
  // With no pending events anywhere, RunUntil must advance straight to the
  // deadline (no per-lookahead window spinning across an idle gap).
  constexpr int kShards = 4;
  ShardedEngine engine(ShardedEngineConfig{.shards = kShards});
  uint64_t windows = 0;
  engine.set_barrier_hook([&] { windows++; });
  int ran = 0;
  engine.shard(2).ScheduleAt(Micros(50), [&] { ran++; });
  // A whole simulated minute of idle time after the one event.
  engine.RunUntil(Seconds(60));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(engine.now(), Seconds(60));
  for (int s = 0; s < kShards; s++) {
    EXPECT_EQ(engine.shard(s).now(), Seconds(60));
  }
  // One window for the event (plus at most a couple of boundary windows) —
  // not the ~240k a naive fixed-step loop would take.
  EXPECT_LE(windows, 4u);
}

}  // namespace
}  // namespace actop
