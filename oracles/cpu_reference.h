// Retained seed implementation of the processor-sharing CPU model, used as
// the differential-test oracle and benchmark baseline for the virtual-time
// rewrite in cpu.{h,cc}. Do not optimize: this preserves the seed's
// per-event O(n) accounting — the per-job remaining-demand decrement loop in
// AdvanceTo, the full min-remaining rescan in Reschedule, and the
// Cancel + ScheduleAfter churn of the pending completion on every arrival —
// so the rewrite can be checked completion-for-completion against it
// (tests/seda/cpu_differential_test.cc) and timed against it
// (bench/bench_cluster.cc, scenarios cpu_*).
//
// Semantics and epsilon (0.5 ns done threshold) are identical to the
// optimized model; both must keep producing the same completion times and
// orders up to the floating-point tolerance documented in the differential
// test.

#ifndef ORACLES_CPU_REFERENCE_H_
#define ORACLES_CPU_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/common/inline_task.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/sim/simulation.h"

namespace actop::sedaref {

// Seed CpuModel: exact event-driven egalitarian processor sharing with
// per-job remaining-demand accounting. See src/seda/cpu.h for the shared
// model documentation (dispatch quantum, sharing rate, GC pauses).
class CpuModel {
 public:
  CpuModel(Simulation* sim, int cores, double kappa, SimDuration quantum = 0, uint64_t seed = 1);

  CpuModel(const CpuModel&) = delete;
  CpuModel& operator=(const CpuModel&) = delete;

  void BeginCompute(SimDuration demand, InlineTask done);

  void set_total_threads(int total_threads);
  int total_threads() const { return total_threads_; }

  int cores() const { return cores_; }
  int active_jobs() const { return num_jobs_; }
  int runnable_jobs() const { return ready_jobs_ + num_jobs_; }

  double busy_core_nanos() const;
  double current_rate() const { return Rate(); }

  void EnablePauses(SimDuration mean_interval, SimDuration base_duration,
                    double per_thread_factor, double exponent = 1.0);

  bool paused() const { return paused_; }

 private:
  static constexpr uint32_t kNilIndex = 0xFFFFFFFFu;

  // Jobs live in a slab threaded by an intrusive doubly-linked list in
  // insertion order (OnCompletion collects finished callbacks in that order,
  // which is part of deterministic dispatch); freed slots recycle through a
  // free list over `next`. A parked job (dispatch-latency wait) occupies a
  // slot but is not yet linked.
  struct Job {
    double remaining = 0.0;  // ns of demanded core time still owed
    InlineTask done;
    uint32_t prev = kNilIndex;
    uint32_t next = kNilIndex;  // doubles as the free-list link
  };

  double Efficiency() const;
  double Rate() const;
  void AdvanceTo(SimTime t);
  void Reschedule();
  void OnCompletion();
  uint32_t AllocJob(SimDuration demand, InlineTask done);
  void LinkJob(uint32_t slot);
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
  std::vector<Job> jobs_;
  uint32_t jobs_head_ = kNilIndex;  // oldest linked job
  uint32_t jobs_tail_ = kNilIndex;
  uint32_t jobs_free_ = kNilIndex;
  int num_jobs_ = 0;
  std::vector<InlineTask> done_scratch_;
  SimTime last_update_ = 0;
  EventId pending_completion_ = 0;
  double busy_core_nanos_ = 0.0;

  bool pauses_enabled_ = false;
  bool paused_ = false;
  SimDuration pause_mean_interval_ = 0;
  SimDuration pause_base_duration_ = 0;
  double pause_per_thread_factor_ = 0.0;
  double pause_exponent_ = 1.0;
};

}  // namespace actop::sedaref

#endif  // ORACLES_CPU_REFERENCE_H_
