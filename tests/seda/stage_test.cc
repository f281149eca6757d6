#include "src/seda/stage.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/sim_time.h"
#include "src/seda/cpu.h"
#include "src/sim/simulation.h"

namespace actop {
namespace {

struct StageFixture : public ::testing::Test {
  Simulation sim;
  CpuModel cpu{&sim, 8, 0.0};
};

TEST_F(StageFixture, ProcessesSingleEvent) {
  Stage stage(&sim, &cpu, "worker", 2);
  bool done = false;
  stage.Enqueue(StageEvent{.compute = Millis(1), .done = [&] { done = true; }});
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(stage.total_completions(), 1u);
  EXPECT_EQ(sim.now(), Millis(1));
}

TEST_F(StageFixture, QueueWaitWhenThreadsBusy) {
  Stage stage(&sim, &cpu, "worker", 1);
  SimTime second_done = -1;
  stage.Enqueue(StageEvent{.compute = Millis(10), .done = [] {}});
  stage.Enqueue(StageEvent{.compute = Millis(10), .done = [&] { second_done = sim.now(); }});
  sim.Run();
  EXPECT_EQ(second_done, Millis(20));  // waited 10 ms for the single thread
  const StageWindow w = stage.TakeWindow();
  EXPECT_EQ(w.completions, 2u);
  EXPECT_NEAR(w.sum_queue_wait, static_cast<double>(Millis(10)), 1e4);
}

TEST_F(StageFixture, ParallelThreadsNoQueueWait) {
  Stage stage(&sim, &cpu, "worker", 2);
  stage.Enqueue(StageEvent{.compute = Millis(10), .done = [] {}});
  stage.Enqueue(StageEvent{.compute = Millis(10), .done = [] {}});
  sim.Run();
  EXPECT_EQ(sim.now(), Millis(10));
  const StageWindow w = stage.TakeWindow();
  EXPECT_NEAR(w.sum_queue_wait, 0.0, 1.0);
}

TEST_F(StageFixture, BlockingTimeDoesNotUseCpu) {
  Stage stage(&sim, &cpu, "io", 1);
  SimTime done_at = -1;
  stage.Enqueue(StageEvent{
      .compute = Millis(2), .blocking = Millis(8), .done = [&] { done_at = sim.now(); }});
  sim.Run();
  EXPECT_EQ(done_at, Millis(10));
  EXPECT_NEAR(cpu.busy_core_nanos(), static_cast<double>(Millis(2)), 1e3);
}

TEST_F(StageFixture, WallclockAccountsComputeAndBlocking) {
  Stage stage(&sim, &cpu, "io", 1);
  stage.Enqueue(StageEvent{.compute = Millis(3), .blocking = Millis(4), .done = [] {}});
  sim.Run();
  const StageWindow w = stage.TakeWindow();
  EXPECT_NEAR(w.sum_wallclock, static_cast<double>(Millis(7)), 1e4);
  EXPECT_NEAR(w.sum_compute, static_cast<double>(Millis(3)), 1.0);
  EXPECT_NEAR(w.sum_blocking, static_cast<double>(Millis(4)), 1.0);
}

TEST_F(StageFixture, BoundedQueueRejects) {
  Stage stage(&sim, &cpu, "recv", 1, /*queue_capacity=*/2);
  int rejected = 0;
  int completed = 0;
  for (int i = 0; i < 5; i++) {
    stage.Enqueue(StageEvent{.compute = Millis(10),
                             .done = [&] { completed++; },
                             .rejected = [&] { rejected++; }});
  }
  sim.Run();
  // 1 in service + 2 queued accepted; 2 rejected.
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(stage.total_rejections(), 2u);
}

TEST_F(StageFixture, IncreasingThreadsDrainsQueue) {
  Stage stage(&sim, &cpu, "worker", 1);
  for (int i = 0; i < 4; i++) {
    stage.Enqueue(StageEvent{.compute = Millis(10), .done = [] {}});
  }
  sim.ScheduleAt(Millis(1), [&] { stage.set_threads(4); });
  sim.Run();
  // One starts at 0; at 1 ms the other three start; all demand 10 ms and the
  // CPU has 8 cores -> finish by 11 ms.
  EXPECT_EQ(sim.now(), Millis(11));
}

TEST_F(StageFixture, DecreasingThreadsLetsBusyDrain) {
  Stage stage(&sim, &cpu, "worker", 2);
  int completed = 0;
  for (int i = 0; i < 4; i++) {
    stage.Enqueue(StageEvent{.compute = Millis(10), .done = [&] { completed++; }});
  }
  sim.ScheduleAt(Millis(1), [&] { stage.set_threads(1); });
  sim.Run();
  EXPECT_EQ(completed, 4);
  // Two run [0,10]; then one at a time: [10,20], [20,30].
  EXPECT_EQ(sim.now(), Millis(30));
}

TEST_F(StageFixture, WindowResetsAfterTake) {
  Stage stage(&sim, &cpu, "worker", 1);
  stage.Enqueue(StageEvent{.compute = Millis(1), .done = [] {}});
  sim.Run();
  StageWindow w1 = stage.TakeWindow();
  EXPECT_EQ(w1.completions, 1u);
  StageWindow w2 = stage.TakeWindow();
  EXPECT_EQ(w2.completions, 0u);
  EXPECT_EQ(w2.arrivals, 0u);
}

TEST_F(StageFixture, QueueLengthIntegralTracksBacklog) {
  Stage stage(&sim, &cpu, "worker", 1);
  for (int i = 0; i < 3; i++) {
    stage.Enqueue(StageEvent{.compute = Millis(10), .done = [] {}});
  }
  sim.Run();
  const StageWindow w = stage.TakeWindow();
  // Queue holds 2 events for 10 ms, then 1 event for 10 ms = 30 ms·events.
  EXPECT_NEAR(w.queue_len_time_integral, static_cast<double>(Millis(30)), 1e5);
}

TEST_F(StageFixture, ReadyTimeEmergesUnderContention) {
  // One stage with 4 threads on a 1-core CPU: wallclock > compute, and the
  // difference is the "ready time" r of the paper's Figure 9.
  Simulation local_sim;
  CpuModel small_cpu(&local_sim, 1, 0.0);
  Stage stage(&local_sim, &small_cpu, "worker", 4);
  small_cpu.set_total_threads(4);
  for (int i = 0; i < 4; i++) {
    stage.Enqueue(StageEvent{.compute = Millis(5), .done = [] {}});
  }
  local_sim.Run();
  const StageWindow w = stage.TakeWindow();
  // 4 jobs share 1 core: each takes 20 ms wallclock for 5 ms compute.
  EXPECT_NEAR(w.mean_wallclock(), static_cast<double>(Millis(20)), 1e5);
  EXPECT_NEAR(w.mean_compute(), static_cast<double>(Millis(5)), 1.0);
}

TEST_F(StageFixture, ContinuationEnqueueDoesNotOvertakeWaitingEvents) {
  // One thread: A runs while B and C wait. A's continuation enqueues D; the
  // thread A freed already went to B, and D must queue behind C rather than
  // start directly.
  Stage stage(&sim, &cpu, "worker", 1);
  std::vector<char> order;
  stage.Enqueue(StageEvent{.compute = Millis(1), .done = [&] {
                             order.push_back('A');
                             stage.Enqueue(StageEvent{.compute = Millis(1),
                                                      .done = [&] { order.push_back('D'); }});
                           }});
  stage.Enqueue(StageEvent{.compute = Millis(1), .done = [&] { order.push_back('B'); }});
  stage.Enqueue(StageEvent{.compute = Millis(1), .done = [&] { order.push_back('C'); }});
  sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'D'}));
  EXPECT_EQ(sim.now(), Millis(4));
}

TEST_F(StageFixture, AcceptedEventNeverRunsRejected) {
  // Two threads, room for two waiting: the first two events start directly,
  // the next two queue, and all four are accepted.
  Stage stage(&sim, &cpu, "recv", 2, /*queue_capacity=*/2);
  int completed = 0;
  int rejected = 0;
  for (int i = 0; i < 4; i++) {
    stage.Enqueue(StageEvent{.compute = Millis(10),
                             .done = [&] { completed++; },
                             .rejected = [&] { rejected++; }});
  }
  sim.Run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(rejected, 0);
  EXPECT_EQ(stage.total_rejections(), 0u);
}

TEST_F(StageFixture, DirectStartWindowMatchesPushThenPop) {
  // A starts directly, B waits 10 ms behind it, and C arrives at 25 ms to an
  // idle stage. Push-then-pop recorded three arrivals, B's wait only, and
  // one waiting event for 10 ms in the queue-length integral; the window must
  // hold exactly those figures (all are whole nanoseconds, so exact).
  Stage stage(&sim, &cpu, "worker", 1);
  stage.Enqueue(StageEvent{.compute = Millis(10), .done = [] {}});
  stage.Enqueue(StageEvent{.compute = Millis(10), .done = [] {}});
  sim.ScheduleAt(Millis(25),
                 [&] { stage.Enqueue(StageEvent{.compute = Millis(5), .done = [] {}}); });
  sim.RunUntil(Millis(40));
  const StageWindow w = stage.TakeWindow();
  EXPECT_EQ(w.arrivals, 3u);
  EXPECT_EQ(w.completions, 3u);
  EXPECT_EQ(w.rejections, 0u);
  EXPECT_EQ(w.sum_queue_wait, static_cast<double>(Millis(10)));
  EXPECT_EQ(w.sum_wallclock, static_cast<double>(Millis(25)));
  EXPECT_EQ(w.sum_compute, static_cast<double>(Millis(25)));
  EXPECT_EQ(w.sum_blocking, 0.0);
  EXPECT_EQ(w.queue_len_time_integral, static_cast<double>(Millis(10)));

  // A direct start in a fresh window adds nothing to the integral even
  // though the integral's clock last moved at the TakeWindow above.
  sim.ScheduleAt(Millis(50),
                 [&] { stage.Enqueue(StageEvent{.compute = Millis(1), .done = [] {}}); });
  sim.RunUntil(Millis(60));
  const StageWindow w2 = stage.TakeWindow();
  EXPECT_EQ(w2.arrivals, 1u);
  EXPECT_EQ(w2.sum_queue_wait, 0.0);
  EXPECT_EQ(w2.queue_len_time_integral, 0.0);
}

}  // namespace
}  // namespace actop
