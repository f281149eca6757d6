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
  ACTOP_CHECK(next_seq_ <= kMaxSeq);
  const uint32_t slot = slots_.Alloc();
  // Slot indices must fit the low kSlotBits of a HeapEntry key: at most
  // 2^24 simultaneously pending events (the largest soaks peak ~1e6).
  ACTOP_CHECK(slot <= kSlotMask);
  slots_[slot].fn = std::move(fn);
  heap_.Push(HeapEntry{when, (next_seq_++ << kSlotBits) | slot});
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

bool Simulation::Reschedule(EventId id, SimTime when) {
  uint32_t slot;
  if ((id & kPeriodicTag) != 0 || !LiveSlot(id, &slot)) return false;
  ACTOP_CHECK(when >= now_);
  ACTOP_CHECK(next_seq_ <= kMaxSeq);
  const size_t pos = slots_[slot].heap_pos;
  heap_.mutable_at(pos) = HeapEntry{when, (next_seq_++ << kSlotBits) | slot};
  // The fresh seq is the largest in the heap, so among equal timestamps the
  // entry only sinks; across timestamps it can move either way.
  heap_.Fix(pos);
  return true;
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

uint64_t Simulation::Run() {
  uint64_t n = 0;
  while (!heap_.empty()) {
    DispatchTop();
    n++;
  }
  return n;
}

uint64_t Simulation::RunUntil(SimTime deadline) {
  ACTOP_CHECK(deadline >= now_);
  uint64_t n = 0;
  while (!heap_.empty() && heap_.top().when <= deadline) {
    DispatchTop();
    n++;
  }
  now_ = deadline;
  return n;
}

uint64_t Simulation::RunWindow(SimTime end) {
  uint64_t n = 0;
  while (!heap_.empty() && heap_.top().when < end) {
    DispatchTop();
    n++;
  }
  return n;
}

bool Simulation::RunOne() {
  if (heap_.empty()) return false;
  DispatchTop();
  return true;
}

}  // namespace actop
