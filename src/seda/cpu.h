// Processor-sharing CPU model for a simulated server.
//
// A server has `cores` physical processors shared by all SEDA-stage threads.
// Starting a computation has two parts:
//
//  1. Dispatch (ready-state) latency: when more threads are runnable than
//     there are cores, a newly runnable thread waits for a scheduling
//     quantum. The delay is sampled exponentially with mean
//         quantum * max(0, runnable - cores) / cores.
//     This is the dominant latency term in SEDA servers with per-stage
//     thread pools (the paper's Figure 4: queue/ready time dwarfs the
//     microsecond-scale processing) and is what makes over-allocation of
//     threads expensive (Figure 5).
//
//  2. Processor sharing: computing jobs progress at rate
//         min(1, cores / computing) / (1 + kappa * max(0, computing - cores))
//     where the second factor models context-switch and cache-thrash
//     overhead. The sharing is exact (event-driven): whenever the set of
//     running computations changes, the next completion is re-scheduled.
//
// The ready-state delay plus sharing stretch is exactly the r (ready time)
// of the paper's Figure 9; blocking time w is modeled at the Stage level.
//
// Optionally the CPU models managed-runtime (GC) pauses: stop-the-world
// events at exponential intervals whose duration grows with the number of
// allocated threads (suspending more threads takes longer and more thread
// stacks mean more GC roots). Pauses create the backlog spikes that make a
// SEDA server's latency so sensitive to its thread allocation — the
// phenomenon behind the paper's Figures 4 and 5.
//
// Implementation: virtual-time fair queuing. Under egalitarian processor
// sharing every running job receives the identical instantaneous rate, so
// one cumulative virtual-service clock V(t) = ∫ rate(t) dt describes all of
// them: a job that starts when the clock reads V with demand d finishes when
// the clock reads V + d, regardless of how many rate changes happen in
// between. The model therefore advances a single accumulator per rate
// segment (O(1), replacing the seed's per-job remaining-demand decrement
// loop), keeps each job's immutable finish tag V_start + demand in a 4-ary
// min-heap (src/common/quad_heap.h) ordered by (finish tag, link seq) (peek
// replaces the seed's full min-remaining rescan), parks jobs in a Slab
// (src/common/slab.h), and re-arms one standing completion event via
// Simulation::Reschedule (no Cancel + ScheduleAfter slot churn on every
// arrival). Arrival and completion are O(log n) in the number of running
// jobs; nothing on the steady-state path allocates. The retained seed
// implementation lives in oracles/cpu_reference.h (namespace sedaref,
// test/bench-only) and the two
// are held equivalent by tests/seda/cpu_differential_test.cc.

#ifndef SRC_SEDA_CPU_H_
#define SRC_SEDA_CPU_H_

#include <cstdint>
#include <vector>

#include "src/common/inline_task.h"
#include "src/common/quad_heap.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/slab.h"
#include "src/sim/simulation.h"

namespace actop {

class CpuModel {
 public:
  // kappa: per-excess-thread efficiency penalty; quantum: scheduling quantum
  // driving dispatch latency (0 disables it); seed: for the dispatch-delay
  // sampler (see file comment).
  CpuModel(Simulation* sim, int cores, double kappa, SimDuration quantum = 0, uint64_t seed = 1);

  CpuModel(const CpuModel&) = delete;
  CpuModel& operator=(const CpuModel&) = delete;

  // Starts a computation with the given CPU demand (in ns of dedicated-core
  // time). `done` runs when the computation completes; the wallclock taken is
  // >= demand and depends on concurrent load.
  void BeginCompute(SimDuration demand, InlineTask done);

  // Total threads allocated on this server (across all stages). Bookkeeping
  // only: the over-subscription penalty depends on *active* computations
  // (allocated-but-idle threads are parked and cost nothing). Read at the
  // start of each GC pause, so a change applies from the next pause on.
  void set_total_threads(int total_threads);
  int total_threads() const { return total_threads_; }

  int cores() const { return cores_; }
  // Jobs currently computing (on-CPU, sharing cores).
  int active_jobs() const { return static_cast<int>(heap_.size()); }
  // Jobs runnable: waiting for a scheduling quantum plus computing.
  int runnable_jobs() const { return ready_jobs_ + active_jobs(); }

  // Busy core-nanoseconds accumulated since construction. `utilization` over
  // a window is (busy_core_nanos delta) / (cores * window).
  // Time stretched by the over-subscription penalty counts as busy: the
  // wasted cycles are real CPU work (context switches) in the modeled system.
  double busy_core_nanos() const;

  // Current per-job progress rate in (0, 1]; exposed for tests.
  double current_rate() const { return Rate(); }

  // Enables stop-the-world pauses: exponential inter-pause intervals with
  // the given mean; each pause lasts
  //   base_duration * (1 + per_thread_factor * max(0, total_threads-cores))^exponent
  // (suspension cost scales with threads; heap live-set scan superlinearly
  // with in-flight work). During a pause no job progresses and all cores
  // count as busy (GC work).
  void EnablePauses(SimDuration mean_interval, SimDuration base_duration,
                    double per_thread_factor, double exponent = 1.0);

  bool paused() const { return paused_; }

 private:
  // Slot index bits in a heap key; bounds simultaneous jobs per CPU at 2^24
  // (real runs peak at a few hundred — the thread allocation).
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  // 2^40 job links per CpuModel before the packed seq would wrap — checked.
  static constexpr uint64_t kMaxSeq = (1ULL << (64 - kSlotBits)) - 1;

  // A parked job (dispatch-latency wait) occupies a slot but is not yet in
  // the heap; until it links, `finish_v` holds the raw demand (the finish
  // tag can only be computed against V at link time).
  struct Job {
    double finish_v = 0.0;  // V_link + demand once linked; demand while parked
    InlineTask done;
  };

  // Heap entries carry the full sort key so sift operations compare within
  // the contiguous heap array (same layout discipline as the engine's event
  // heap): `key` packs the monotone link seq over the slot index, so for
  // equal finish tags key order is link order — the seed completed tied jobs
  // in insertion order, and a completion batch of two or more is sorted by
  // this key to preserve exactly that callback order.
  struct HeapEntry {
    double finish_v;
    uint64_t key;

    uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
  };

  struct Before {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.finish_v != b.finish_v ? a.finish_v < b.finish_v : a.key < b.key;
    }
  };

  double Efficiency() const;
  double Rate() const;  // per-job progress per wallclock ns
  // Cores actively burning cycles right now (shared by the busy accounting
  // in AdvanceTo and the mid-interval projection in busy_core_nanos()).
  double BusyCores() const;
  void AdvanceTo(SimTime t);
  void Reschedule();
  void OnCompletion();
  uint32_t AllocJob(SimDuration demand, InlineTask done);
  void StartParkedJob(uint32_t slot);
  void SchedulePause();
  void BeginPause();
  void EndPause();

  Simulation* sim_;
  const int cores_;
  const double kappa_;
  const SimDuration quantum_;
  Rng rng_;
  int total_threads_;
  int ready_jobs_ = 0;
  Slab<Job> jobs_;
  QuadHeap<HeapEntry, Before> heap_;  // running jobs, min (finish_v, seq)
  // Cumulative virtual service V(t); rebased to 0 whenever the CPU idles so
  // the accumulator never outgrows double precision within a busy period.
  double vtime_ = 0.0;
  uint64_t next_seq_ = 1;
  // Reused across completions so tie batches do not allocate at steady state.
  std::vector<uint64_t> batch_scratch_;     // popped keys, sorted to seq order
  std::vector<InlineTask> done_scratch_;
  SimTime last_update_ = 0;
  EventId pending_completion_ = 0;
  double busy_core_nanos_ = 0.0;

  // GC-pause modeling.
  bool pauses_enabled_ = false;
  bool paused_ = false;
  SimDuration pause_mean_interval_ = 0;
  SimDuration pause_base_duration_ = 0;
  double pause_per_thread_factor_ = 0.0;
  double pause_exponent_ = 1.0;
};

}  // namespace actop

#endif  // SRC_SEDA_CPU_H_
