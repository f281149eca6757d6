// Discrete-event simulation engine.
//
// The engine owns an indexed 4-ary min-heap of timestamped events
// (src/common/quad_heap.h). Events scheduled at the same instant run in
// scheduling order (a monotone sequence number breaks ties), which makes
// every run bit-for-bit deterministic for a fixed seed.
//
// Hot-path design (this is the substrate every figure bench, partitioning
// sweep and chaos soak executes on):
//   * Callbacks are InlineTask, not std::function: typical captures
//     ([this, EnvelopePtr, epoch], [this, id, token]) stay inline, so
//     steady-state scheduling performs zero heap allocations.
//   * Event state lives in a Slab of reusable slots (src/common/slab.h); the
//     heap holds (when, seq, slot) triples with the sort key inline, so sift
//     operations touch only the contiguous heap array, and a position hook
//     keeps each slot's back-pointer to its heap entry.
//   * EventIds are generation-stamped slot references. Cancel(id) removes
//     the event from the heap in O(log n) — no lazy-deletion garbage — and
//     returns false for ids that already fired or were already cancelled
//     (the slot's generation advances on every free, invalidating old ids).
//     pending_events() is therefore exact.
//   * Periodic tasks occupy their own generation-stamped Slab; their ticks
//     are ordinary events, rescheduled after each callback returns, so the
//     (when, seq) dispatch order is identical to scheduling the next tick by
//     hand. Cancelling a periodic removes its in-flight tick directly.
//
// Timer track. A persistent timer is a function pointer and a context,
// registered once (AddTimer) and then armed, re-armed and disarmed in place:
// it has at most one entry in a second, small QuadHeap (a few entries per
// server), keyed like the event heap by (when, seq | timer). Arming draws a
// fresh seq from the same counter ScheduleAt uses, or takes one the owner
// reserved earlier with ReserveSeq(), so a timer can stand in for a one-shot
// event scheduled at the moment the seq was reserved. Dispatch takes
// whichever heap's top comes first in the one global (when, seq) order, and
// seqs are unique across both heaps, so a timer runs exactly where the
// one-shot event it replaces would have run. The CPU model's completion and
// dispatch wake-ups and each network lane's delivery cursor are timers: a
// firing claims no event slot, builds no InlineTask and never sifts the big
// event heap. Run, RunUntil, RunWindow, RunOne, next_event_time,
// AdvanceClockTo, pending_events and the after-event hook all see both heaps,
// and a timer firing counts as one executed event.
//
// Everything in the repository — the network, SEDA servers, the actor
// runtime, the ActOp partitioning protocol and thread controllers — executes
// as callbacks on this single engine.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/check.h"
#include "src/common/inline_task.h"
#include "src/common/quad_heap.h"
#include "src/common/sim_time.h"
#include "src/common/slab.h"

namespace actop {

// Identifies a scheduled event (or, with the top bit set, a periodic task)
// so it can be cancelled. Layout: [63] periodic tag, [62:32] slot generation
// (never 0), [31:0] slot index. Id 0 is never minted. Stale ids — fired,
// cancelled, or from a previous slot occupant — fail generation validation;
// a collision would require the same slot to be reused 2^31 times.
using EventId = uint64_t;

// Cache-line aligned: the sharded engine allocates its per-shard engines
// back to back, and each is written on every event by its own thread.
class alignas(64) Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time.
  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (must be >= now()).
  EventId ScheduleAt(SimTime when, InlineTask fn);

  // Schedules `fn` to run `delay` after now (delay must be >= 0).
  EventId ScheduleAfter(SimDuration delay, InlineTask fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a pending event in O(log n). Returns true if the event was
  // pending (it had not fired and had not been cancelled before); returns
  // false for already-fired events, double cancels, and invalid ids — no
  // bookkeeping is corrupted by such calls. On a periodic control id this is
  // equivalent to CancelPeriodic.
  bool Cancel(EventId id);

  // Schedules `fn` to run every `period` starting at now() + `period`.
  // Returns a control id accepted by CancelPeriodic (or Cancel). The
  // callback may cancel its own id from inside its invocation.
  EventId SchedulePeriodic(SimDuration period, InlineTask fn);

  // Stops a periodic task, removing its pending tick from the event queue.
  // Returns true if the task was live; false for stale/foreign ids.
  bool CancelPeriodic(EventId id);

  // --- persistent timers (see the file comment) ---

  // A timer callback; `ctx` is the pointer given to AddTimer.
  using TimerFn = void (*)(void* ctx);
  using TimerId = uint32_t;

  // Registers a disarmed timer. The owner removes it before `ctx` dies.
  TimerId AddTimer(TimerFn fn, void* ctx);

  // Disarms the timer and frees its id for reuse.
  void RemoveTimer(TimerId id);

  // Draws the next sequence number, exactly as a ScheduleAt at this moment
  // would, without scheduling anything. An owner arms a timer with it later
  // to give the timer the key a one-shot event scheduled now would have had.
  uint64_t ReserveSeq() {
    ACTOP_CHECK(next_seq_ <= kMaxSeq);
    return next_seq_++;
  }

  // Arms (or re-keys, if already armed) the timer to fire at `when` (must be
  // >= now()) with a fresh seq: it runs after every entry already pending at
  // `when`, like a ScheduleAt made now. Safe from inside the timer's own
  // callback, which runs disarmed.
  void ArmTimer(TimerId id, SimTime when) { ArmTimer(id, when, ReserveSeq()); }

  // Arms (or re-keys) the timer with `seq`, a value ReserveSeq() returned.
  // The caller guarantees that no other pending entry holds `seq`.
  void ArmTimer(TimerId id, SimTime when, uint64_t seq);

  // Removes the timer's pending expiry, if any.
  void DisarmTimer(TimerId id);

  bool timer_armed(TimerId id) const { return timer_slots_[id].armed; }

  // Runs events until the queue is empty. Returns the number of events run.
  uint64_t Run();

  // Runs events with timestamp <= `deadline`, then advances the clock to
  // `deadline`. Returns the number of events run.
  uint64_t RunUntil(SimTime deadline);

  // Runs the single next event if any; returns false when the queue is empty.
  bool RunOne();

  // Timestamp of the earliest pending event or armed timer, or kSimTimeMax
  // when both are empty. The sharded engine uses this to compute conservative
  // window bounds across shards.
  SimTime next_event_time() const {
    const SimTime e = heap_.empty() ? kSimTimeMax : heap_.top().when;
    return timers_.empty() || e < timers_.top().when ? e : timers_.top().when;
  }

  // Runs events with timestamp strictly < `end` and leaves the clock at the
  // last dispatched event (it does NOT advance to `end`): the window owner
  // advances all shard clocks together via AdvanceClockTo once the barrier
  // closes. Returns the number of events run.
  uint64_t RunWindow(SimTime end);

  // Advances the clock to `t` without running anything. Requires t >= now()
  // and no pending event earlier than `t` — i.e. the window up to `t` has
  // been fully executed.
  void AdvanceClockTo(SimTime t) {
    ACTOP_CHECK(t >= now_);
    ACTOP_CHECK(next_event_time() >= t);
    now_ = t;
  }

  // Observation hook invoked after every dispatched event (chaos harness:
  // event-batch invariant checks). The hook must not run events itself, but
  // may schedule new ones. Pass nullptr to remove.
  void set_after_event_hook(std::function<void()> hook) { after_event_hook_ = std::move(hook); }

  // Number of events currently pending (exact: cancelled events are removed
  // from the heap immediately) plus armed timers. Each live periodic
  // contributes its one in-flight tick; a timer whose callback is running is
  // disarmed, so it counts only once its callback re-arms it.
  size_t pending_events() const { return heap_.size() + timers_.size(); }

  // Total events executed since construction.
  uint64_t events_executed() const { return events_executed_; }

 private:
  static constexpr uint64_t kPeriodicTag = 1ULL << 63;
  static constexpr uint32_t kGenMask = 0x7FFFFFFFu;

  // Heap entries carry the full sort key so sift operations compare within
  // the contiguous heap array instead of chasing slot indices. 16 bytes:
  // `key` packs the monotone sequence tie-breaker (high 40 bits — seq order
  // IS key order because no two entries of either heap share a seq) over the
  // event slot or timer id (low 24 bits), so a sibling group of four spans a
  // single cache line.
  struct HeapEntry {
    SimTime when;
    uint64_t key;

    uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
  };

  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  // 2^40 ScheduleAt/ReserveSeq calls per Simulation (~1.1e12; the longest
  // soaks run ~1e9) before the packed seq would wrap — checked, not assumed.
  static constexpr uint64_t kMaxSeq = (1ULL << (64 - kSlotBits)) - 1;

  // A slot keeps its generation across reuse (the Slab hands it back as
  // the last occupant left it), which is what invalidates stale ids.
  struct EventSlot {
    InlineTask fn;
    uint32_t gen = 1;
    uint32_t heap_pos = 0;  // position in heap_ while pending
  };

  struct TimerSlot {
    TimerFn fn = nullptr;  // null while the id is free
    void* ctx = nullptr;
    // Position in timers_ while armed; the next free id while the id is free
    // (an intrusive free list: removing a timer never allocates).
    uint32_t heap_pos = 0;
    bool armed = false;
  };
  static constexpr TimerId kNoTimer = 0xFFFFFFFFu;

  struct PeriodicSlot {
    InlineTask fn;
    SimDuration period = 0;
    EventId next_event = 0;  // pending tick; 0 while the callback is running
    uint32_t gen = 1;
    bool live = false;
  };

  // (when, seq) order. Sequence numbers are unique, so for equal timestamps
  // comparing the packed keys (seq in the high bits) is exactly seq order.
  struct Before {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.when != b.when ? a.when < b.when : a.key < b.key;
    }
  };
  // Keeps each pending slot's (or armed timer's) heap_pos in step with its
  // entry.
  template <typename Slots>
  struct TrackPosition {
    Slots* slots;
    void operator()(const HeapEntry& e, size_t pos) const {
      (*slots)[e.slot()].heap_pos = static_cast<uint32_t>(pos);
    }
  };
  static uint32_t NextGen(uint32_t gen) {
    gen = (gen + 1) & kGenMask;
    return gen == 0 ? 1 : gen;
  }
  static EventId PackId(uint32_t gen, uint32_t slot, uint64_t tag) {
    return tag | (static_cast<uint64_t>(gen) << 32) | slot;
  }

  // Resolves an event id to its live slot, or returns false.
  bool LiveSlot(EventId id, uint32_t* slot) const;
  void FreeSlot(uint32_t slot);
  // True when the earliest pending entry is an armed timer (requires at
  // least one pending entry). Seqs are unique across both heaps, so this is
  // one strict (when, seq) order.
  bool TimerFirst() const {
    return !timers_.empty() && (heap_.empty() || Before{}(timers_.top(), heap_.top()));
  }
  void DispatchTop();
  void DispatchTimer();
  // Dispatches entries of both heaps in (when, seq) order while `due(when)`
  // holds for the earliest one. Returns the number dispatched.
  template <typename Due>
  uint64_t RunWhile(Due due);
  void PeriodicTick(uint32_t slot, uint32_t gen);

  Slab<EventSlot> slots_;
  QuadHeap<HeapEntry, Before, TrackPosition<Slab<EventSlot>>> heap_{
      Before{}, TrackPosition<Slab<EventSlot>>{&slots_}};

  std::vector<TimerSlot> timer_slots_;
  TimerId free_timer_ = kNoTimer;
  QuadHeap<HeapEntry, Before, TrackPosition<std::vector<TimerSlot>>> timers_{
      Before{}, TrackPosition<std::vector<TimerSlot>>{&timer_slots_}};

  Slab<PeriodicSlot> periodic_slots_;

  std::function<void()> after_event_hook_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
};

}  // namespace actop

#endif  // SRC_SIM_SIMULATION_H_
