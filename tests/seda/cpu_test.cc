#include "src/seda/cpu.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/sim/simulation.h"

namespace actop {
namespace {

TEST(CpuModelTest, SingleJobTakesItsDemand) {
  Simulation sim;
  CpuModel cpu(&sim, 4, 0.0);
  cpu.set_total_threads(4);
  SimTime done_at = -1;
  cpu.BeginCompute(Millis(10), [&] { done_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(done_at, Millis(10));
}

TEST(CpuModelTest, JobsWithinCoreCountRunInParallel) {
  Simulation sim;
  CpuModel cpu(&sim, 4, 0.0);
  cpu.set_total_threads(4);
  int finished = 0;
  SimTime last = 0;
  for (int i = 0; i < 4; i++) {
    cpu.BeginCompute(Millis(10), [&] {
      finished++;
      last = sim.now();
    });
  }
  sim.Run();
  EXPECT_EQ(finished, 4);
  EXPECT_EQ(last, Millis(10));  // no slowdown: 4 jobs on 4 cores
}

TEST(CpuModelTest, OversubscribedJobsShareCores) {
  Simulation sim;
  CpuModel cpu(&sim, 2, 0.0);
  cpu.set_total_threads(4);
  SimTime last = 0;
  for (int i = 0; i < 4; i++) {
    cpu.BeginCompute(Millis(10), [&] { last = sim.now(); });
  }
  sim.Run();
  // 4 jobs on 2 cores, each progresses at rate 1/2 -> 20 ms.
  EXPECT_EQ(last, Millis(20));
}

TEST(CpuModelTest, OversubscriptionPenaltySlowsJobs) {
  Simulation sim;
  CpuModel cpu(&sim, 2, 0.125);
  // 4 concurrent jobs on 2 cores: share 1/2, efficiency 1/(1+0.125*2) = 0.8
  // -> rate 0.4 -> 10 ms of demand takes 25 ms.
  SimTime last = -1;
  for (int i = 0; i < 4; i++) {
    cpu.BeginCompute(Millis(10), [&] { last = sim.now(); });
  }
  sim.Run();
  EXPECT_EQ(last, Millis(25));
}

TEST(CpuModelTest, NoPenaltyAtOrBelowCoreCount) {
  Simulation sim;
  CpuModel cpu(&sim, 8, 0.5);
  // 8 jobs on 8 cores: no sharing, no over-subscription.
  SimTime last = -1;
  for (int i = 0; i < 8; i++) {
    cpu.BeginCompute(Millis(10), [&] { last = sim.now(); });
  }
  sim.Run();
  EXPECT_EQ(last, Millis(10));
}

TEST(CpuModelTest, IdleAllocatedThreadsCostNothing) {
  Simulation sim;
  CpuModel cpu(&sim, 2, 0.5);
  cpu.set_total_threads(64);  // parked threads do not slow the one active job
  SimTime done_at = -1;
  cpu.BeginCompute(Millis(10), [&] { done_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(done_at, Millis(10));
}

TEST(CpuModelTest, LateArrivalSlowsInFlightJob) {
  Simulation sim;
  CpuModel cpu(&sim, 1, 0.0);
  cpu.set_total_threads(2);
  SimTime first_done = -1;
  SimTime second_done = -1;
  cpu.BeginCompute(Millis(10), [&] { first_done = sim.now(); });
  sim.ScheduleAt(Millis(5), [&] {
    cpu.BeginCompute(Millis(10), [&] { second_done = sim.now(); });
  });
  sim.Run();
  // First job: 5 ms alone + remaining 5 ms at half rate = 15 ms.
  EXPECT_EQ(first_done, Millis(15));
  // Second job: shares until 15 ms (progress 5 ms), then 5 ms alone = 20 ms.
  EXPECT_EQ(second_done, Millis(20));
}

TEST(CpuModelTest, ZeroDemandCompletesImmediately) {
  Simulation sim;
  CpuModel cpu(&sim, 1, 0.0);
  bool done = false;
  cpu.BeginCompute(0, [&] { done = true; });
  EXPECT_FALSE(done);  // asynchronous even for zero cost
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0);
}

TEST(CpuModelTest, BusyAccountingSingleJob) {
  Simulation sim;
  CpuModel cpu(&sim, 4, 0.0);
  cpu.BeginCompute(Millis(10), [] {});
  sim.Run();
  EXPECT_NEAR(cpu.busy_core_nanos(), static_cast<double>(Millis(10)), 1e3);
}

TEST(CpuModelTest, BusyAccountingSaturated) {
  Simulation sim;
  CpuModel cpu(&sim, 2, 0.0);
  cpu.set_total_threads(4);
  for (int i = 0; i < 4; i++) {
    cpu.BeginCompute(Millis(10), [] {});
  }
  sim.Run();
  // 40 ms of demand on 2 cores -> 20 ms wallclock, both cores busy.
  EXPECT_NEAR(cpu.busy_core_nanos(), static_cast<double>(Millis(40)), 1e4);
  EXPECT_EQ(sim.now(), Millis(20));
}

TEST(CpuModelTest, ChainedComputationsFromCallbacks) {
  Simulation sim;
  CpuModel cpu(&sim, 1, 0.0);
  SimTime done_at = -1;
  cpu.BeginCompute(Millis(5), [&] {
    cpu.BeginCompute(Millis(5), [&] { done_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(done_at, Millis(10));
}

TEST(CpuModelTest, ConcurrencyChangeMidJobAppliesPenalty) {
  Simulation sim;
  CpuModel cpu(&sim, 1, 1.0);
  SimTime first_done = -1;
  cpu.BeginCompute(Millis(10), [&] { first_done = sim.now(); });
  // At 5 ms a second job arrives: share 1/2, efficiency 1/(1+1) = 0.5
  // -> each progresses at rate 1/4.
  sim.ScheduleAt(Millis(5), [&] { cpu.BeginCompute(Millis(100), [] {}); });
  sim.Run();
  // First job: 5 ms alone + remaining 5 ms at rate 1/4 = 20 ms more.
  EXPECT_EQ(first_done, Millis(25));
}

// Property sweep: total busy time equals total demand (no work lost or
// duplicated) across job-count / core-count combinations.
class CpuConservationTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CpuConservationTest, WorkIsConserved) {
  const auto [cores, jobs] = GetParam();
  Simulation sim;
  CpuModel cpu(&sim, cores, 0.0);
  cpu.set_total_threads(std::max(cores, jobs));
  int finished = 0;
  for (int i = 0; i < jobs; i++) {
    // Stagger arrivals so the active set changes over time.
    sim.ScheduleAt(Millis(i), [&] { cpu.BeginCompute(Millis(7), [&] { finished++; }); });
  }
  sim.Run();
  EXPECT_EQ(finished, jobs);
  EXPECT_NEAR(cpu.busy_core_nanos(), static_cast<double>(jobs) * Millis(7),
              static_cast<double>(jobs) * 1e4);
}

INSTANTIATE_TEST_SUITE_P(Grid, CpuConservationTest,
                         ::testing::Combine(::testing::Values(1, 2, 8),
                                            ::testing::Values(1, 3, 10, 25)));

// The model's rng draws happen in a fixed order: EnablePauses draws the first
// inter-pause gap, each oversubscribed BeginCompute draws one dispatch delay,
// each EndPause draws the next gap. A probe Rng fed the same seed replays
// that sequence so tests can compute the exact times of random events and
// assert the scenario preconditions they rely on.

TEST(CpuModelTest, GcPauseWhileJobParkedInDispatchQuantum) {
  const uint64_t kSeed = 3;
  const SimDuration kInterval = Millis(2);
  const SimDuration kPauseLen = Millis(40);
  const SimDuration kQuantum = Millis(30);
  Rng probe(kSeed);
  const auto pause_at = static_cast<SimDuration>(probe.NextExp(kInterval) + 0.5);
  // Job B below arrives with one job computing on the single core, so its
  // dispatch delay is drawn with over = 1, mean = quantum.
  const auto park_delay = static_cast<SimDuration>(probe.NextExp(kQuantum) + 0.5);
  const SimTime b_arrives = pause_at - 1;
  // Preconditions for this seed: B is still parked when the pause begins,
  // and B's park ends mid-pause (the edge under test: the dispatch delay
  // elapses while the CPU is stopped, so B links but makes no progress).
  ASSERT_GT(b_arrives, 0);
  ASSERT_GT(b_arrives + park_delay, pause_at);
  ASSERT_LT(b_arrives + park_delay, pause_at + kPauseLen);
  // ...and the pause after this one starts late enough not to interfere.
  const SimTime second_pause = pause_at + kPauseLen +
                               static_cast<SimDuration>(probe.NextExp(kInterval) + 0.5);

  Simulation sim;
  CpuModel cpu(&sim, /*cores=*/1, /*kappa=*/0.0, kQuantum, kSeed);
  cpu.EnablePauses(kInterval, kPauseLen, /*per_thread_factor=*/0.0);
  const SimDuration b_demand = Micros(50);
  cpu.BeginCompute(Seconds(100), [] {});  // occupies the core throughout
  SimTime b_done = -1;
  sim.ScheduleAt(b_arrives, [&] { cpu.BeginCompute(b_demand, [&] { b_done = sim.now(); }); });
  // Mid-pause, after B's park elapsed: B must be linked (active) but frozen.
  sim.ScheduleAt(pause_at + kPauseLen - 1, [&] {
    EXPECT_TRUE(cpu.paused());
    EXPECT_EQ(cpu.active_jobs(), 2);
    EXPECT_EQ(cpu.current_rate(), 0.0);
  });
  sim.RunUntil(pause_at + kPauseLen + 4 * b_demand);
  // B links mid-pause with zero progress until the pause ends, then shares
  // the core with the long job: demand / (1/2 rate), from the pause end.
  ASSERT_LT(pause_at + kPauseLen + 2 * b_demand, second_pause);
  EXPECT_EQ(b_done, pause_at + kPauseLen + 2 * b_demand);
}

TEST(CpuModelTest, ZeroDemandJobRunsAfterCompletionsAlreadyQueued) {
  // A zero-demand job completes via a fresh zero-delay event, so a completion
  // event already queued at the same instant fires first — callback order is
  // scheduling order, not "free work jumps the queue".
  Simulation sim;
  CpuModel cpu(&sim, 1, 0.0);
  std::vector<int> order;
  cpu.BeginCompute(Millis(5), [&] { order.push_back(1); });  // completes at t=5
  // This event carries a later seq than the completion event above, so it
  // runs second at t=5; the zero-demand completions then queue behind it.
  sim.ScheduleAt(Millis(5), [&] {
    cpu.BeginCompute(0, [&] { order.push_back(2); });
    cpu.BeginCompute(0, [&] { order.push_back(3); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(CpuModelTest, SetTotalThreadsAppliesFromNextPause) {
  const uint64_t kSeed = 5;
  const SimDuration kInterval = Millis(3);
  const SimDuration kBase = Millis(1);
  Rng probe(kSeed);
  const auto gap1 = static_cast<SimDuration>(probe.NextExp(kInterval) + 0.5);
  const auto gap2 = static_cast<SimDuration>(probe.NextExp(kInterval) + 0.5);

  Simulation sim;
  CpuModel cpu(&sim, /*cores=*/2, /*kappa=*/0.0, /*quantum=*/0, kSeed);
  cpu.EnablePauses(kInterval, kBase, /*per_thread_factor=*/0.5);
  // First pause: total_threads == cores, so duration is exactly kBase.
  // Second pause: excess = 10 - 2, growth = 1 + 0.5 * 8 = 5x.
  const SimTime p1 = gap1;
  const SimTime p2 = p1 + kBase + gap2;
  const SimDuration dur2 = 5 * kBase;
  int checks = 0;
  // Probes at a transition instant must be scheduled *after* the transition
  // event was (same-timestamp events run in scheduling order), so each probe
  // schedules the next from inside the previous one.
  sim.ScheduleAt(p1, [&] {
    checks++;
    EXPECT_TRUE(cpu.paused());
    // Mid-pause reallocation: the running pause keeps its duration; only the
    // next pause reads the new thread count.
    cpu.set_total_threads(10);
    sim.ScheduleAt(p1 + kBase - 1, [&] {
      checks++;
      EXPECT_TRUE(cpu.paused());
      sim.ScheduleAt(p1 + kBase, [&] {
        checks++;
        EXPECT_FALSE(cpu.paused());
        sim.ScheduleAt(p2, [&] {
          checks++;
          EXPECT_TRUE(cpu.paused());
          sim.ScheduleAt(p2 + dur2 - 1, [&] {
            checks++;
            EXPECT_TRUE(cpu.paused());
            sim.ScheduleAt(p2 + dur2, [&] {
              checks++;
              EXPECT_FALSE(cpu.paused());
            });
          });
        });
      });
    });
  });
  sim.RunUntil(p2 + dur2 + 1);
  EXPECT_EQ(checks, 6);
}

TEST(CpuModelTest, TiedJobsFireInLinkOrderThenLoneCompletion) {
  Simulation sim;
  CpuModel cpu(&sim, 4, 0.0);
  cpu.set_total_threads(4);
  std::vector<char> order;
  // Three staggered jobs take slots 0, 1, 2 and free them in that order, so
  // the free list hands them back as 2, 1, 0: the tied jobs below link in an
  // order opposite to their slot indices.
  for (int i = 0; i < 3; i++) {
    cpu.BeginCompute(Millis(1 + i), [] {});
  }
  sim.Run();
  ASSERT_EQ(sim.now(), Millis(3));
  cpu.BeginCompute(Millis(10), [&] { order.push_back('x'); });
  cpu.BeginCompute(Millis(10), [&] { order.push_back('y'); });
  cpu.BeginCompute(Millis(10), [&] { order.push_back('z'); });
  cpu.BeginCompute(Millis(15), [&] {
    order.push_back('L');
    EXPECT_EQ(cpu.active_jobs(), 0);
  });
  SimTime tied_done = -1;
  sim.ScheduleAt(Millis(13) + 1, [&] {
    tied_done = sim.now();
    EXPECT_EQ(order, (std::vector<char>{'x', 'y', 'z'}));
    EXPECT_EQ(cpu.active_jobs(), 1);
  });
  sim.Run();
  EXPECT_EQ(tied_done, Millis(13) + 1);
  EXPECT_EQ(order, (std::vector<char>{'x', 'y', 'z', 'L'}));
  EXPECT_EQ(sim.now(), Millis(18));
}

TEST(CpuModelTest, NearTiedJobsFireInLinkOrder) {
  // Finish tags within the completion epsilon of each other complete in one
  // batch, in link order even when the later job's tag is smaller (the seed
  // swept jobs with remaining <= 0.5 in insertion order).
  Simulation sim;
  CpuModel cpu(&sim, 1, 0.0);
  std::vector<char> order;
  std::vector<SimTime> at;
  cpu.BeginCompute(1000, [&] {
    order.push_back('x');
    at.push_back(sim.now());
  });
  for (int i = 0; i < 3; i++) {
    cpu.BeginCompute(5000, [] {});
  }
  // Four jobs share one core, so V advances 0.25 per ns: y links at V = 0.75
  // with tag 999.75, a quarter below x's 1000.
  sim.ScheduleAt(3, [&] {
    cpu.BeginCompute(999, [&] {
      order.push_back('y');
      at.push_back(sim.now());
    });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'x', 'y'}));
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], at[1]);
}

TEST(CpuModelTest, SameInstantWakeUpsRunInParkOrderAroundEvents) {
  // B and C park behind a running job A and wake at the same instant; E is
  // scheduled for that instant between their BeginCompute calls and F after
  // both. A parked job must wake at the (when, seq) of a one-shot event
  // scheduled in its BeginCompute, so the order is B, E, C, F. A wake-up that
  // drew its seq only when the wake timer was armed for it (after B's
  // wake-up) would run C after F.
  const SimDuration kQuantum = 1;
  uint64_t seed = 0;
  SimDuration wake = 0;
  for (uint64_t s = 1; s <= 1000 && seed == 0; s++) {
    // B parks with one job computing on the single core (over = 1), C with
    // two runnable (over = 2): see the probe-Rng note above.
    Rng probe(s);
    const auto b = static_cast<SimDuration>(probe.NextExp(kQuantum) + 0.5);
    const auto c = static_cast<SimDuration>(probe.NextExp(2 * kQuantum) + 0.5);
    if (b == c && b > 0) {
      seed = s;
      wake = b;
    }
  }
  ASSERT_NE(seed, 0u);

  Simulation sim;
  CpuModel cpu(&sim, /*cores=*/1, /*kappa=*/0.0, kQuantum, seed);
  std::vector<std::string> order;
  cpu.BeginCompute(Seconds(1), [] {});  // A: starts at once, holds the core
  cpu.BeginCompute(Millis(1), [&] { order.push_back("B done"); });
  sim.ScheduleAt(wake, [&] { order.push_back("E sees " + std::to_string(cpu.active_jobs())); });
  cpu.BeginCompute(Millis(1), [&] { order.push_back("C done"); });
  sim.ScheduleAt(wake, [&] { order.push_back("F sees " + std::to_string(cpu.active_jobs())); });
  EXPECT_EQ(cpu.runnable_jobs(), 3);
  EXPECT_EQ(cpu.active_jobs(), 1);
  sim.RunUntil(wake);
  // E runs between the wake-ups: only B has joined A.
  EXPECT_EQ(order, (std::vector<std::string>{"E sees 2", "F sees 3"}));
  sim.RunUntil(Seconds(2));
  // B and C link at one instant with equal demand, so they complete in one
  // batch in link order: B woke first.
  EXPECT_EQ(order,
            (std::vector<std::string>{"E sees 2", "F sees 3", "B done", "C done"}));
}

TEST(CpuModelTest, CompletionRekeyedInsideCallbacksKeepsItsSeq) {
  // Inside a completion, the completion timer's next key is drawn where the
  // running set changes (before the done callbacks, and in a callback's
  // BeginCompute), not when the timer is armed after the callbacks. An
  // event a done callback schedules for the next completion instant after
  // that point therefore runs after the completion, as a one-shot
  // completion event scheduled at that point would have.
  Simulation sim;
  CpuModel cpu(&sim, /*cores=*/2, /*kappa=*/0.0);
  std::vector<std::string> order;
  cpu.BeginCompute(Millis(1), [&] {
    order.push_back("X");
    // Z's completion at t=3 was keyed before this callback ran.
    sim.ScheduleAt(Millis(3), [&] { order.push_back("E"); });
  });
  cpu.BeginCompute(Millis(3), [&] {
    order.push_back("Z");
    cpu.BeginCompute(Millis(2), [&] { order.push_back("W"); });
    // W's completion at t=5 was keyed by the BeginCompute above.
    sim.ScheduleAt(Millis(5), [&] { order.push_back("F"); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"X", "Z", "E", "W", "F"}));
  EXPECT_EQ(sim.now(), Millis(5));
}

TEST(CpuModelTest, DestroyingWithBothTimersArmedLeavesNothingPending) {
  Simulation sim;
  auto held = std::make_shared<int>(0);
  {
    CpuModel cpu(&sim, /*cores=*/1, /*kappa=*/0.0, /*quantum=*/Millis(1), /*seed=*/1);
    cpu.BeginCompute(Millis(5), [held] {});  // running: completion timer armed
    cpu.BeginCompute(Millis(5), [held] {});  // parked: wake timer armed
    ASSERT_EQ(cpu.active_jobs(), 1);
    ASSERT_EQ(cpu.runnable_jobs(), 2);
    EXPECT_EQ(sim.pending_events(), 2u);
    EXPECT_EQ(held.use_count(), 3);
  }
  // Both timers are gone with the model, and so are the jobs' callbacks.
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.next_event_time(), kSimTimeMax);
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(sim.Run(), 0u);
  // The freed timer ids are reused by the next model on this engine.
  CpuModel next(&sim, 1, 0.0);
  SimTime done_at = -1;
  next.BeginCompute(Millis(2), [&] { done_at = sim.now(); });
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(done_at, Millis(2));
}

}  // namespace
}  // namespace actop
