// One SEDA stage: a FIFO event queue drained by a fixed-size thread pool.
//
// Threads of every stage on a server share that server's CpuModel, so a
// stage's observed service time depends on the whole server's thread
// allocation and load — exactly the coupling the paper's thread-allocation
// optimizer exploits.
//
// Per-event accounting follows the paper's Figure 9: an event spends
//   queue wait  -> waiting for a stage thread,
//   x (compute) -> demanded CPU time,
//   r (ready)   -> extra wallclock while computing, due to core sharing and
//                  over-subscription overhead,
//   w (blocking)-> synchronous blocking (no CPU),
// and the stage records z = x + r + w per completion, plus window aggregates
// that the parameter estimator (src/core/param_estimator.h) consumes.
//
// Direct start: an event that arrives while the queue is empty and a thread
// is idle skips the queue and goes straight into service, its continuation
// moved once into the in-service Slab (src/common/slab.h). Its accounting is
// exactly what a push followed by an immediate pop would record: one
// arrival, zero queue wait, nothing added to the queue-length integral. The
// ring therefore holds events only while every thread is busy (on most
// stages of a lightly loaded server it stays empty), and a queued event
// starts in place at the front of the ring before being popped.

#ifndef SRC_SEDA_STAGE_H_
#define SRC_SEDA_STAGE_H_

#include <cstdint>
#include <limits>
#include <string>

#include "src/common/inline_task.h"
#include "src/common/ring_buffer.h"
#include "src/common/sim_time.h"
#include "src/common/slab.h"
#include "src/seda/cpu.h"
#include "src/sim/simulation.h"

namespace actop {

// Work item submitted to a stage. Move-only: continuations are InlineTask,
// so typical captures ride inline through the queue and the event engine
// without heap traffic.
struct StageEvent {
  SimDuration compute = 0;   // x: CPU demand
  SimDuration blocking = 0;  // w: synchronous blocking time (no CPU)
  // Continuation invoked when processing completes.
  InlineTask done;
  // Invoked instead of `done` if the event is rejected (bounded queue full).
  InlineTask rejected;
};

// Aggregates over a measurement window; all sums are nanoseconds.
struct StageWindow {
  uint64_t arrivals = 0;
  uint64_t completions = 0;
  uint64_t rejections = 0;
  double sum_queue_wait = 0.0;
  double sum_wallclock = 0.0;  // z = x + r + w summed over completions
  double sum_compute = 0.0;    // x
  double sum_blocking = 0.0;   // w (the estimator must NOT read this; it is
                               //   kept for test oracles and debugging)
  double queue_len_time_integral = 0.0;  // for time-averaged queue length

  double mean_wallclock() const {
    return completions == 0 ? 0.0 : sum_wallclock / static_cast<double>(completions);
  }
  double mean_compute() const {
    return completions == 0 ? 0.0 : sum_compute / static_cast<double>(completions);
  }
};

class Stage {
 public:
  // `name` is used in reports. `cpu` must outlive the stage.
  Stage(Simulation* sim, CpuModel* cpu, std::string name, int threads,
        size_t queue_capacity = std::numeric_limits<size_t>::max());

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  // Submits an event. If the queue is at capacity the event is rejected.
  void Enqueue(StageEvent&& event);

  // Changes the thread-pool size. Shrinking lets in-service events drain.
  // The caller (Server) is responsible for updating the CpuModel's
  // total-thread count across all stages.
  void set_threads(int threads);
  int threads() const { return threads_; }

  size_t queue_length() const { return queue_.size(); }
  const std::string& name() const { return name_; }

  // Returns the aggregates accumulated since the previous TakeWindow() (or
  // construction) and starts a new window.
  StageWindow TakeWindow();

  // Read-only view of the current (incomplete) window.
  const StageWindow& current_window() const { return window_; }

  // Lifetime totals (never reset).
  uint64_t total_completions() const { return total_completions_; }
  uint64_t total_rejections() const { return total_rejections_; }

 private:
  // An accepted event waiting for a thread. `rejected` is consumed inside
  // Enqueue, so only what service needs is stored (64 bytes).
  struct QueuedEvent {
    SimDuration compute = 0;
    SimDuration blocking = 0;
    InlineTask done;
    SimTime enqueue_time = 0;
  };

  // One event being serviced by a stage thread. Parked in a slab so the
  // compute/blocking continuations capture only [this, slot] and stay inline
  // in the event engine.
  struct InService {
    SimTime service_start = 0;
    SimDuration compute = 0;
    SimDuration blocking = 0;
    InlineTask done;
  };

  void MaybeStartService();
  void StartService(SimDuration compute, SimDuration blocking, InlineTask&& done);
  void OnComputeDone(uint32_t slot);
  void FinishService(uint32_t slot);
  void AccountQueueLength();

  Simulation* sim_;
  CpuModel* cpu_;
  std::string name_;
  int threads_;
  size_t queue_capacity_;
  // Ring, not deque: steady-state enqueue/dequeue touches one contiguous
  // array and never allocates once the queue has seen its high-water mark.
  RingBuffer<QueuedEvent> queue_;
  Slab<InService> in_service_;
  int busy_ = 0;
  StageWindow window_;
  SimTime last_queue_account_ = 0;
  uint64_t total_completions_ = 0;
  uint64_t total_rejections_ = 0;
};

}  // namespace actop

#endif  // SRC_SEDA_STAGE_H_
