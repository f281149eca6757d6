#include "src/sim/simulation.h"

#include <utility>

namespace actop {

// --- event slot slab --------------------------------------------------------

void Simulation::FreeSlot(uint32_t slot) {
  EventSlot& s = slots_[slot];
  s.fn = InlineTask();  // release captures now, not at slot reuse
  s.gen = NextGen(s.gen);
  slots_.Free(slot);
}

bool Simulation::LiveSlot(EventId id, uint32_t* slot) const {
  *slot = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32) & kGenMask;
  // Generation advances on every free, so fired / already-cancelled / foreign
  // ids fail this check (id 0 carries gen 0, which no slot ever holds).
  return *slot < slots_.size() && slots_[*slot].gen == gen;
}

// --- scheduling -------------------------------------------------------------

EventId Simulation::ScheduleAt(SimTime when, InlineTask fn) {
  ACTOP_CHECK(when >= now_);
  ACTOP_CHECK(static_cast<bool>(fn));
  const uint64_t seq = ReserveSeq();
  const uint32_t slot = slots_.Alloc();
  // Slot indices must fit the low kSlotBits of a HeapEntry key: at most
  // 2^24 simultaneously pending events (the largest soaks peak ~1e6).
  ACTOP_CHECK(slot <= kSlotMask);
  slots_[slot].fn = std::move(fn);
  heap_.Push(HeapEntry{when, (seq << kSlotBits) | slot});
  return PackId(slots_[slot].gen, slot, 0);
}

bool Simulation::Cancel(EventId id) {
  if ((id & kPeriodicTag) != 0) return CancelPeriodic(id);
  uint32_t slot;
  if (!LiveSlot(id, &slot)) return false;
  heap_.RemoveAt(slots_[slot].heap_pos);
  FreeSlot(slot);
  return true;
}

// --- persistent timers ------------------------------------------------------

Simulation::TimerId Simulation::AddTimer(TimerFn fn, void* ctx) {
  ACTOP_CHECK(fn != nullptr);
  TimerId id = free_timer_;
  if (id != kNoTimer) {
    free_timer_ = timer_slots_[id].heap_pos;
  } else {
    ACTOP_CHECK(timer_slots_.size() <= kSlotMask);
    id = static_cast<TimerId>(timer_slots_.size());
    timer_slots_.emplace_back();
  }
  timer_slots_[id] = TimerSlot{fn, ctx, 0, false};
  return id;
}

void Simulation::RemoveTimer(TimerId id) {
  DisarmTimer(id);
  timer_slots_[id].fn = nullptr;
  timer_slots_[id].heap_pos = free_timer_;
  free_timer_ = id;
}

void Simulation::ArmTimer(TimerId id, SimTime when, uint64_t seq) {
  ACTOP_CHECK(id < timer_slots_.size() && timer_slots_[id].fn != nullptr);
  ACTOP_CHECK(when >= now_);
  ACTOP_CHECK(seq > 0 && seq < next_seq_);
  TimerSlot& t = timer_slots_[id];
  const HeapEntry entry{when, (seq << kSlotBits) | id};
  if (t.armed) {
    timers_.mutable_at(t.heap_pos) = entry;
    timers_.Fix(t.heap_pos);
  } else {
    t.armed = true;
    timers_.Push(entry);
  }
}

void Simulation::DisarmTimer(TimerId id) {
  ACTOP_CHECK(id < timer_slots_.size() && timer_slots_[id].fn != nullptr);
  TimerSlot& t = timer_slots_[id];
  if (t.armed) {
    t.armed = false;
    timers_.RemoveAt(t.heap_pos);
  }
}

// --- periodic tasks ---------------------------------------------------------

EventId Simulation::SchedulePeriodic(SimDuration period, InlineTask fn) {
  ACTOP_CHECK(period > 0);
  ACTOP_CHECK(static_cast<bool>(fn));
  const uint32_t slot = periodic_slots_.Alloc();
  PeriodicSlot& p = periodic_slots_[slot];
  p.fn = std::move(fn);
  p.period = period;
  p.live = true;
  const uint32_t gen = p.gen;
  p.next_event = ScheduleAfter(period, [this, slot, gen] { PeriodicTick(slot, gen); });
  return PackId(gen, slot, kPeriodicTag);
}

void Simulation::PeriodicTick(uint32_t slot, uint32_t gen) {
  {
    PeriodicSlot& p = periodic_slots_[slot];
    if (!p.live || p.gen != gen) return;  // defensive; cancel removes the tick
    p.next_event = 0;
  }
  // Move the callback out so the slot can be reused if the callback cancels
  // this periodic and schedules a new one.
  InlineTask fn = std::move(periodic_slots_[slot].fn);
  fn();
  // Re-fetch: the callback may have scheduled periodics, growing the slab.
  PeriodicSlot& p = periodic_slots_[slot];
  if (p.live && p.gen == gen) {
    p.fn = std::move(fn);
    p.next_event = ScheduleAfter(p.period, [this, slot, gen] { PeriodicTick(slot, gen); });
  }
}

bool Simulation::CancelPeriodic(EventId id) {
  if ((id & kPeriodicTag) == 0) return false;
  const uint32_t slot = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32) & kGenMask;
  if (slot >= periodic_slots_.size()) return false;
  PeriodicSlot& p = periodic_slots_[slot];
  if (!p.live || p.gen != gen) return false;
  if (p.next_event != 0) {
    Cancel(p.next_event);  // zero when cancelled from inside the callback
    p.next_event = 0;
  }
  p.live = false;
  p.fn = InlineTask();
  p.gen = NextGen(p.gen);
  periodic_slots_.Free(slot);
  return true;
}

// --- dispatch ---------------------------------------------------------------

void Simulation::DispatchTop() {
  const HeapEntry top = heap_.top();
  heap_.PopRoot();
  // Free the slot before invoking: a cancel of this id from inside its own
  // callback sees a stale generation and correctly returns false, and the
  // callback may schedule freely (possibly reusing this very slot).
  InlineTask fn = std::move(slots_[top.slot()].fn);
  FreeSlot(top.slot());
  now_ = top.when;
  events_executed_++;
  fn();
  if (after_event_hook_) after_event_hook_();
}

void Simulation::DispatchTimer() {
  const HeapEntry top = timers_.top();
  timers_.PopRoot();
  // Disarmed before the callback runs, so the callback may re-arm it (or
  // remove it) freely.
  TimerSlot& t = timer_slots_[top.slot()];
  t.armed = false;
  const TimerFn fn = t.fn;
  void* const ctx = t.ctx;
  now_ = top.when;
  events_executed_++;
  fn(ctx);
  if (after_event_hook_) after_event_hook_();
}

template <typename Due>
uint64_t Simulation::RunWhile(Due due) {
  uint64_t n = 0;
  for (;;) {
    if (TimerFirst()) {
      if (!due(timers_.top().when)) break;
      DispatchTimer();
    } else {
      if (heap_.empty() || !due(heap_.top().when)) break;
      DispatchTop();
    }
    n++;
  }
  return n;
}

uint64_t Simulation::Run() {
  return RunWhile([](SimTime) { return true; });
}

uint64_t Simulation::RunUntil(SimTime deadline) {
  ACTOP_CHECK(deadline >= now_);
  const uint64_t n = RunWhile([deadline](SimTime when) { return when <= deadline; });
  now_ = deadline;
  return n;
}

uint64_t Simulation::RunWindow(SimTime end) {
  return RunWhile([end](SimTime when) { return when < end; });
}

bool Simulation::RunOne() {
  if (heap_.empty() && timers_.empty()) return false;
  if (TimerFirst()) {
    DispatchTimer();
  } else {
    DispatchTop();
  }
  return true;
}

}  // namespace actop
