#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"

namespace actop {
namespace {

TEST(SimulationTest, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  sim.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Millis(30));
}

TEST(SimulationTest, SameTimeEventsRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulationTest, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  SimTime observed = -1;
  sim.ScheduleAfter(Millis(10), [&] {
    sim.ScheduleAfter(Millis(5), [&] { observed = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(observed, Millis(15));
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const EventId id = sim.ScheduleAfter(Millis(1), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulationTest, CancelTwiceReturnsFalse) {
  Simulation sim;
  const EventId id = sim.ScheduleAfter(Millis(1), [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  sim.Run();
}

TEST(SimulationTest, CancelInvalidIdReturnsFalse) {
  Simulation sim;
  EXPECT_FALSE(sim.Cancel(0));
  EXPECT_FALSE(sim.Cancel(12345));
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int count = 0;
  sim.ScheduleAt(Millis(10), [&] { count++; });
  sim.ScheduleAt(Millis(20), [&] { count++; });
  sim.ScheduleAt(Millis(30), [&] { count++; });
  const uint64_t ran = sim.RunUntil(Millis(20));
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), Millis(20));
  sim.Run();
  EXPECT_EQ(count, 3);
}

TEST(SimulationTest, RunUntilSkipsCancelledEventBeyondDeadline) {
  Simulation sim;
  bool late_ran = false;
  const EventId id = sim.ScheduleAt(Millis(5), [] {});
  sim.ScheduleAt(Millis(50), [&] { late_ran = true; });
  sim.Cancel(id);
  sim.RunUntil(Millis(10));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.now(), Millis(10));
}

TEST(SimulationTest, PeriodicRunsRepeatedly) {
  Simulation sim;
  int ticks = 0;
  sim.SchedulePeriodic(Millis(10), [&] { ticks++; });
  sim.RunUntil(Millis(55));
  EXPECT_EQ(ticks, 5);  // at 10, 20, 30, 40, 50
}

TEST(SimulationTest, CancelPeriodicStopsTicks) {
  Simulation sim;
  int ticks = 0;
  const EventId id = sim.SchedulePeriodic(Millis(10), [&] { ticks++; });
  sim.ScheduleAt(Millis(35), [&] { sim.CancelPeriodic(id); });
  sim.RunUntil(Millis(100));
  EXPECT_EQ(ticks, 3);
}

TEST(SimulationTest, PeriodicCanCancelItself) {
  Simulation sim;
  int ticks = 0;
  EventId id = 0;
  id = sim.SchedulePeriodic(Millis(10), [&] {
    ticks++;
    if (ticks == 2) {
      sim.CancelPeriodic(id);
    }
  });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(ticks, 2);
}

TEST(SimulationTest, EventCanScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    depth++;
    if (depth < 100) {
      sim.ScheduleAfter(Micros(1), recurse);
    }
  };
  sim.ScheduleAfter(Micros(1), recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), Micros(100));
}

TEST(SimulationTest, EventsExecutedCounter) {
  Simulation sim;
  for (int i = 0; i < 7; i++) {
    sim.ScheduleAfter(i, [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulationTest, RunOneReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.RunOne());
  sim.ScheduleAfter(1, [] {});
  EXPECT_TRUE(sim.RunOne());
  EXPECT_FALSE(sim.RunOne());
}

TEST(SimulationTest, ZeroDelayEventRunsAtCurrentTime) {
  Simulation sim;
  SimTime when = -1;
  sim.ScheduleAt(Millis(10), [&] {
    sim.ScheduleAfter(0, [&] { when = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(when, Millis(10));
}

// --- engine edge cases (indexed-heap cancellation semantics) ---

TEST(SimulationTest, CancelAfterFireReturnsFalse) {
  Simulation sim;
  const EventId id = sim.ScheduleAfter(Millis(1), [] {});
  sim.Run();
  // The seed engine wrongly returned true here (any id < next_id_ was
  // accepted) and polluted its cancelled-set forever.
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  // Bookkeeping is intact: new events still schedule and cancel normally.
  const EventId id2 = sim.ScheduleAfter(Millis(1), [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.Cancel(id2));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, CancelFromInsideOwnCallbackReturnsFalse) {
  Simulation sim;
  bool cancel_result = true;
  EventId id = 0;
  id = sim.ScheduleAfter(Millis(1), [&] { cancel_result = sim.Cancel(id); });
  sim.Run();
  EXPECT_FALSE(cancel_result);  // the event already fired
}

TEST(SimulationTest, CancelDoesNotAffectReusedSlot) {
  Simulation sim;
  // Fire-and-free a slot, then schedule a new event (which reuses it). The
  // stale id must not cancel the new occupant.
  const EventId stale = sim.ScheduleAfter(Millis(1), [] {});
  sim.Run();
  bool ran = false;
  sim.ScheduleAfter(Millis(1), [&] { ran = true; });
  EXPECT_FALSE(sim.Cancel(stale));
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(SimulationTest, PendingEventsIsExactAfterCancels) {
  Simulation sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; i++) {
    ids.push_back(sim.ScheduleAfter(Millis(1 + i), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 16u);
  for (int i = 0; i < 16; i += 2) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
  }
  // Cancelled events are removed immediately, not lazily at pop time.
  EXPECT_EQ(sim.pending_events(), 8u);
  EXPECT_EQ(sim.Run(), 8u);
}

TEST(SimulationTest, RunUntilAdvancesClockOverAllCancelledQueue) {
  Simulation sim;
  std::vector<EventId> ids;
  for (int i = 1; i <= 5; i++) {
    ids.push_back(sim.ScheduleAt(Millis(i), [] {}));
  }
  for (EventId id : ids) {
    EXPECT_TRUE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.RunUntil(Millis(10)), 0u);
  EXPECT_EQ(sim.now(), Millis(10));
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulationTest, CancelOnPeriodicControlIdActsAsCancelPeriodic) {
  Simulation sim;
  int ticks = 0;
  const EventId id = sim.SchedulePeriodic(Millis(10), [&] { ticks++; });
  sim.RunUntil(Millis(25));
  EXPECT_EQ(ticks, 2);
  EXPECT_TRUE(sim.Cancel(id));  // documented equivalent of CancelPeriodic
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunUntil(Millis(100));
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is stale
}

TEST(SimulationTest, CancelPeriodicReturnsFalseWhenStale) {
  Simulation sim;
  const EventId id = sim.SchedulePeriodic(Millis(10), [] {});
  EXPECT_TRUE(sim.CancelPeriodic(id));
  EXPECT_FALSE(sim.CancelPeriodic(id));
  EXPECT_FALSE(sim.CancelPeriodic(0));
  // One-shot ids are not periodic control ids.
  const EventId one_shot = sim.ScheduleAfter(Millis(1), [] {});
  EXPECT_FALSE(sim.CancelPeriodic(one_shot));
  EXPECT_TRUE(sim.Cancel(one_shot));
}

TEST(SimulationTest, PeriodicSelfCancelInsideOwnCallbackReturnsTrue) {
  Simulation sim;
  int ticks = 0;
  bool cancel_result = false;
  EventId id = 0;
  id = sim.SchedulePeriodic(Millis(10), [&] {
    ticks++;
    if (ticks == 3) {
      cancel_result = sim.CancelPeriodic(id);
    }
  });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(ticks, 3);
  EXPECT_TRUE(cancel_result);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, PeriodicCanRestartItselfInsideOwnCallback) {
  Simulation sim;
  int slow_ticks = 0;
  int fast_ticks = 0;
  EventId id = 0;
  id = sim.SchedulePeriodic(Millis(10), [&] {
    slow_ticks++;
    if (slow_ticks == 2) {
      sim.CancelPeriodic(id);
      // Reuses the freed periodic slot; the old generation must not leak
      // into the replacement.
      sim.SchedulePeriodic(Millis(5), [&] { fast_ticks++; });
    }
  });
  sim.RunUntil(Millis(41));
  EXPECT_EQ(slow_ticks, 2);   // at 10, 20
  EXPECT_EQ(fast_ticks, 4);   // at 25, 30, 35, 40
}

TEST(SimulationTest, SameTimestampTieBreakIsScheduleOrderAcrossOperations) {
  Simulation sim;
  std::vector<int> order;
  // Interleave schedules and cancels at one timestamp; survivors must run
  // in original scheduling order regardless of heap internals.
  std::vector<EventId> ids;
  for (int i = 0; i < 12; i++) {
    ids.push_back(sim.ScheduleAt(Millis(7), [&order, i] { order.push_back(i); }));
  }
  for (int i : {1, 4, 5, 9}) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 6, 7, 8, 10, 11}));
}

// --- persistent timers -------------------------------------------------------

// A timer whose callback appends `label` and then runs `then` (if set).
struct LabelTimer {
  std::vector<int>* order = nullptr;
  int label = 0;
  std::function<void()> then;

  static void Fire(void* ctx) {
    auto* t = static_cast<LabelTimer*>(ctx);
    t->order->push_back(t->label);
    if (t->then) t->then();
  }
};

TEST(SimulationTest, TimerRearmMovesEitherDirection) {
  Simulation sim;
  std::vector<int> order;
  LabelTimer lt{&order, 1, nullptr};
  const Simulation::TimerId t = sim.AddTimer(&LabelTimer::Fire, &lt);
  sim.ArmTimer(t, Millis(20));
  sim.ScheduleAt(Millis(10), [&] { order.push_back(0); });
  sim.ArmTimer(t, Millis(5));  // earlier
  sim.ScheduleAt(Millis(7), [&] {
    sim.ArmTimer(t, Millis(30));  // later, from inside an event
  });
  sim.ArmTimer(t, Millis(15));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.now(), Millis(30));
  EXPECT_FALSE(sim.timer_armed(t));
  sim.RemoveTimer(t);
}

TEST(SimulationTest, TimerRearmKeepsOneEntry) {
  Simulation sim;
  std::vector<int> order;
  LabelTimer lt{&order, 7, nullptr};
  const Simulation::TimerId t = sim.AddTimer(&LabelTimer::Fire, &lt);
  for (int i = 1; i <= 50; i++) {
    sim.ArmTimer(t, Millis(i));
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.next_event_time(), Millis(50));
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{7}));
  EXPECT_EQ(sim.events_executed(), 1u);
  sim.RemoveTimer(t);
}

TEST(SimulationTest, TimerArmOrdersLikeCancelPlusScheduleAt) {
  // Re-arming a timer must run it after entries already pending at its new
  // timestamp, exactly as the Cancel + ScheduleAt of a one-shot event would.
  auto run = [](bool use_timer) {
    Simulation sim;
    std::vector<int> order;
    LabelTimer lt{&order, 99, nullptr};
    const Simulation::TimerId t = sim.AddTimer(&LabelTimer::Fire, &lt);
    for (int i = 0; i < 4; i++) {
      sim.ScheduleAt(Millis(10), [&order, i] { order.push_back(i); });
    }
    if (use_timer) {
      sim.ArmTimer(t, Millis(4));
      sim.ArmTimer(t, Millis(10));
    } else {
      const EventId id = sim.ScheduleAt(Millis(4), [&order] { order.push_back(99); });
      EXPECT_TRUE(sim.Cancel(id));
      sim.ScheduleAt(Millis(10), [&order] { order.push_back(99); });
    }
    sim.ScheduleAt(Millis(10), [&order] { order.push_back(4); });
    sim.Run();
    sim.RemoveTimer(t);
    return order;
  };
  const std::vector<int> with_timer = run(true);
  const std::vector<int> with_cancel = run(false);
  EXPECT_EQ(with_timer, (std::vector<int>{0, 1, 2, 3, 99, 4}));
  EXPECT_EQ(with_timer, with_cancel);
}

TEST(SimulationTest, TimerArmedAtCurrentInstantRunsAfterPendingTies) {
  Simulation sim;
  std::vector<int> order;
  LabelTimer lt{&order, 2, nullptr};
  const Simulation::TimerId t = sim.AddTimer(&LabelTimer::Fire, &lt);
  sim.ArmTimer(t, Millis(20));
  // From inside an event at t=5: move the timer to t=5. It must still run
  // after the event below that was already pending at t=5.
  sim.ScheduleAt(Millis(5), [&] { sim.ArmTimer(t, Millis(5)); });
  sim.ScheduleAt(Millis(5), [&order] { order.push_back(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), Millis(5));
  sim.RemoveTimer(t);
}

TEST(SimulationTest, TimerAndEventAtOneInstantRunInSeqOrder) {
  Simulation sim;
  std::vector<int> order;
  LabelTimer a{&order, 100, nullptr};
  LabelTimer b{&order, 200, nullptr};
  const Simulation::TimerId ta = sim.AddTimer(&LabelTimer::Fire, &a);
  const Simulation::TimerId tb = sim.AddTimer(&LabelTimer::Fire, &b);
  sim.ScheduleAt(Millis(5), [&] { order.push_back(1); });
  sim.ArmTimer(ta, Millis(5));  // fresh seq: after event 1
  // A reserved seq places tb where a ScheduleAt made at this point would
  // run: before event 2, although it is armed after it.
  const uint64_t reserved = sim.ReserveSeq();
  sim.ScheduleAt(Millis(5), [&] { order.push_back(2); });
  sim.ArmTimer(tb, Millis(5), reserved);
  sim.ScheduleAt(Millis(5), [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 100, 200, 2, 3}));
  sim.RemoveTimer(ta);
  sim.RemoveTimer(tb);
}

TEST(SimulationTest, RunWindowStopsBeforeTimerDueAtEnd) {
  Simulation sim;
  std::vector<int> order;
  LabelTimer lt{&order, 1, nullptr};
  const Simulation::TimerId t = sim.AddTimer(&LabelTimer::Fire, &lt);
  sim.ArmTimer(t, Millis(10));
  EXPECT_EQ(sim.RunWindow(Millis(10)), 0u);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(sim.next_event_time(), Millis(10));
  sim.AdvanceClockTo(Millis(10));  // up to, not past, the armed timer
  EXPECT_EQ(sim.RunWindow(Millis(10) + 1), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.next_event_time(), kSimTimeMax);
  sim.RemoveTimer(t);
}

TEST(SimulationDeathTest, AdvanceClockToRefusesToPassAnArmedTimer) {
  Simulation sim;
  std::vector<int> order;
  LabelTimer lt{&order, 1, nullptr};
  const Simulation::TimerId t = sim.AddTimer(&LabelTimer::Fire, &lt);
  sim.ArmTimer(t, Millis(10));
  EXPECT_DEATH(sim.AdvanceClockTo(Millis(10) + 1), "");
  sim.RemoveTimer(t);
}

TEST(SimulationTest, PendingEventsCountsArmedTimersButNotAFiringOne) {
  Simulation sim;
  std::vector<int> order;
  std::vector<size_t> seen;
  LabelTimer lt{&order, 1, nullptr};
  const Simulation::TimerId t = sim.AddTimer(&LabelTimer::Fire, &lt);
  lt.then = [&] {
    seen.push_back(sim.pending_events());  // firing: not counted
    if (order.size() < 2) {
      sim.ArmTimer(t, sim.now() + Millis(1));
      seen.push_back(sim.pending_events());
    }
  };
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.ArmTimer(t, Millis(1));
  sim.ScheduleAt(Millis(5), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Run();
  EXPECT_EQ(seen, (std::vector<size_t>{1, 2, 1}));
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.ArmTimer(t, Millis(9));
  sim.DisarmTimer(t);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RemoveTimer(t);
}

// Randomized differential check of the two-heap dispatch against a
// reference model: one std::set of (when, seq, label) holding every pending
// one-shot event and armed timer, with seqs drawn from a counter that mirrors
// the engine's. Every dispatch must be the set's first element, and
// pending_events() must equal the set's size. The script mixes one-shot
// schedules and cancels with timer arms (fresh and reserved seqs) and
// disarms, issued both from outside and from inside callbacks, including a
// timer re-arming and disarming itself from inside its own callback.
class TimerDifferential {
 public:
  explicit TimerDifferential(uint64_t seed) : rng_(seed) {
    for (int i = 0; i < kTimers; i++) {
      timers_[i].owner = this;
      timers_[i].index = i;
      timers_[i].id = sim_.AddTimer(&TimerDifferential::FireTimer, &timers_[i]);
    }
  }
  ~TimerDifferential() {
    for (int i = 0; i < kTimers; i++) {
      sim_.RemoveTimer(timers_[i].id);
    }
  }

  void Run() {
    for (int i = 0; i < 40; i++) {
      Act();
    }
    // Drive the engine through each of its run entry points.
    while (!ref_.empty()) {
      ASSERT_EQ(sim_.next_event_time(), std::get<0>(*ref_.begin()));
      const SimTime step = sim_.now() + static_cast<SimDuration>(rng_.NextInt(0, 30));
      switch (rng_.NextInt(0, 3)) {
        case 0:
          sim_.RunUntil(step);
          break;
        case 1:
          sim_.RunWindow(step);
          if (sim_.next_event_time() >= step) sim_.AdvanceClockTo(step);
          break;
        case 2:
          sim_.RunOne();
          break;
        default:
          sim_.Run();
          break;
      }
      ASSERT_EQ(sim_.pending_events(), ref_.size());
    }
    EXPECT_EQ(sim_.Run(), 0u);
    EXPECT_EQ(sim_.events_executed(), dispatched_);
    EXPECT_GT(dispatched_, 1000u);
    EXPECT_GT(timer_fires_, 200u);
  }

 private:
  static constexpr int kTimers = 4;
  using Key = std::tuple<SimTime, uint64_t, int>;  // (when, seq, label)

  struct Timer {
    TimerDifferential* owner = nullptr;
    int index = 0;
    Simulation::TimerId id = 0;
    bool armed = false;
    Key key{};
  };

  static void FireTimer(void* ctx) {
    auto* t = static_cast<Timer*>(ctx);
    TimerDifferential* self = t->owner;
    ASSERT_TRUE(t->armed);
    t->armed = false;
    self->timer_fires_++;
    self->Fired(t->key);
    // Inside its own callback the timer is disarmed: re-arm it, or arm and
    // then disarm it, before any other action.
    switch (self->rng_.NextInt(0, 3)) {
      case 0:
        self->ArmTimer(t->index, self->Delay());
        break;
      case 1:
        self->ArmTimer(t->index, self->Delay());
        self->DisarmTimer(t->index);
        break;
      default:
        break;
    }
    self->ActFromCallback();
  }

  void Fired(const Key& key) {
    ASSERT_FALSE(ref_.empty());
    ASSERT_EQ(*ref_.begin(), key);
    ASSERT_EQ(sim_.now(), std::get<0>(key));
    ref_.erase(ref_.begin());
    dispatched_++;
    ASSERT_EQ(sim_.pending_events(), ref_.size());
  }

  uint64_t DrawSeq() { return ++seq_; }

  SimDuration Delay() {
    // Many zero and small delays, so same-instant ties are common.
    return static_cast<SimDuration>(rng_.NextInt(0, 3) == 0 ? 0 : rng_.NextInt(0, 20));
  }

  void Schedule(SimDuration delay) {
    const int label = next_label_++;
    const SimTime when = sim_.now() + delay;
    const uint64_t seq = DrawSeq();
    const Key key{when, seq, label};
    const EventId id = sim_.ScheduleAt(when, [this, key, label] {
      live_.erase(label);
      Fired(key);
      ActFromCallback();
    });
    ref_.insert(key);
    live_[label] = Pending{id, key};
  }

  void CancelSome() {
    if (live_.empty()) return;
    auto it = live_.begin();
    std::advance(it, static_cast<long>(rng_.NextBounded(live_.size())));
    ASSERT_TRUE(sim_.Cancel(it->second.id));
    ASSERT_FALSE(sim_.Cancel(it->second.id));
    ref_.erase(it->second.key);
    live_.erase(it);
  }

  void ArmTimer(int i, SimDuration delay) {
    Timer& t = timers_[i];
    if (t.armed) ref_.erase(t.key);
    const SimTime when = sim_.now() + delay;
    t.key = Key{when, DrawSeq(), kTimerLabel + i};
    sim_.ArmTimer(t.id, when);
    t.armed = true;
    ref_.insert(t.key);
  }

  void ArmTimerReserved(int i) {
    if (reserved_.empty()) return;
    Timer& t = timers_[i];
    if (t.armed) ref_.erase(t.key);
    const uint64_t seq = reserved_.front();
    reserved_.erase(reserved_.begin());
    const SimTime when = sim_.now() + Delay();
    t.key = Key{when, seq, kTimerLabel + i};
    sim_.ArmTimer(t.id, when, seq);
    t.armed = true;
    ref_.insert(t.key);
  }

  void DisarmTimer(int i) {
    Timer& t = timers_[i];
    if (t.armed) ref_.erase(t.key);
    t.armed = false;
    sim_.DisarmTimer(t.id);
    ASSERT_FALSE(sim_.timer_armed(t.id));
  }

  void Act() {
    const int timer = static_cast<int>(rng_.NextBounded(kTimers));
    switch (rng_.NextInt(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3:
        Schedule(Delay());
        break;
      case 4:
        CancelSome();
        break;
      case 5:
      case 6:
        ArmTimer(timer, Delay());
        break;
      case 7: {
        // Reserved now, used by a later action (possibly from a callback).
        const uint64_t seq = sim_.ReserveSeq();
        ASSERT_EQ(seq, DrawSeq());
        reserved_.push_back(seq);
        break;
      }
      case 8:
        ArmTimerReserved(timer);
        break;
      default:
        DisarmTimer(timer);
        break;
    }
  }

  void ActFromCallback() {
    if (dispatched_ > kBudget) return;
    // Grow towards ~30 pending entries, then hover there.
    const int n = static_cast<int>(ref_.size() < 30 ? rng_.NextInt(2, 8) : rng_.NextInt(0, 3));
    for (int i = 0; i < n; i++) {
      Act();
    }
  }

  struct Pending {
    EventId id;
    Key key;
  };

  static constexpr int kTimerLabel = 1 << 30;
  static constexpr uint64_t kBudget = 3000;

  Simulation sim_;
  Rng rng_;
  Timer timers_[kTimers];
  std::set<Key> ref_;
  std::map<int, Pending> live_;
  std::vector<uint64_t> reserved_;
  uint64_t seq_ = 0;
  int next_label_ = 0;
  uint64_t dispatched_ = 0;
  uint64_t timer_fires_ = 0;
};

TEST(SimulationTest, TimerTrackMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 20; seed++) {
    SCOPED_TRACE(seed);
    TimerDifferential(seed).Run();
  }
}

}  // namespace
}  // namespace actop
