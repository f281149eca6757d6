// Retained seed implementation — see cpu_reference.h. Mirrors the seed's
// cpu.cc line for line (only the namespace differs); keep it frozen.

#include "oracles/cpu_reference.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.h"

namespace actop::sedaref {

namespace {
// Jobs whose remaining demand falls below this are considered complete.
constexpr double kDoneEpsilon = 0.5;
}  // namespace

CpuModel::CpuModel(Simulation* sim, int cores, double kappa, SimDuration quantum, uint64_t seed)
    : sim_(sim),
      cores_(cores),
      kappa_(kappa),
      quantum_(quantum),
      rng_(seed),
      total_threads_(cores) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(cores >= 1);
  ACTOP_CHECK(kappa >= 0.0);
  ACTOP_CHECK(quantum >= 0);
  last_update_ = sim_->now();
}

double CpuModel::Efficiency() const {
  const int excess = std::max(0, num_jobs_ - cores_);
  return 1.0 / (1.0 + kappa_ * static_cast<double>(excess));
}

double CpuModel::Rate() const {
  if (paused_) {
    return 0.0;
  }
  if (num_jobs_ == 0) {
    return 0.0;
  }
  const double share = std::min(1.0, static_cast<double>(cores_) / static_cast<double>(num_jobs_));
  return share * Efficiency();
}

void CpuModel::AdvanceTo(SimTime t) {
  ACTOP_CHECK(t >= last_update_);
  const auto dt = static_cast<double>(t - last_update_);
  if (dt > 0.0) {
    if (paused_) {
      busy_core_nanos_ += dt * static_cast<double>(cores_);
    } else if (num_jobs_ > 0) {
      const double rate = Rate();
      for (uint32_t i = jobs_head_; i != kNilIndex; i = jobs_[i].next) {
        jobs_[i].remaining -= dt * rate;
      }
      busy_core_nanos_ += dt * std::min<double>(num_jobs_, cores_);
    }
  }
  last_update_ = t;
}

void CpuModel::Reschedule() {
  if (pending_completion_ != 0) {
    sim_->Cancel(pending_completion_);
    pending_completion_ = 0;
  }
  if (num_jobs_ == 0 || paused_) {
    return;
  }
  double min_remaining = jobs_[jobs_head_].remaining;
  for (uint32_t i = jobs_[jobs_head_].next; i != kNilIndex; i = jobs_[i].next) {
    min_remaining = std::min(min_remaining, jobs_[i].remaining);
  }
  const double rate = Rate();
  ACTOP_CHECK(rate > 0.0);
  const double wait = std::max(0.0, min_remaining) / rate;
  pending_completion_ =
      sim_->ScheduleAfter(static_cast<SimDuration>(std::ceil(wait)), [this] { OnCompletion(); });
}

void CpuModel::OnCompletion() {
  pending_completion_ = 0;
  AdvanceTo(sim_->now());
  done_scratch_.clear();
  for (uint32_t i = jobs_head_; i != kNilIndex;) {
    const uint32_t next = jobs_[i].next;
    if (jobs_[i].remaining <= kDoneEpsilon) {
      done_scratch_.push_back(std::move(jobs_[i].done));
      Job& j = jobs_[i];
      if (j.prev != kNilIndex) {
        jobs_[j.prev].next = j.next;
      } else {
        jobs_head_ = j.next;
      }
      if (j.next != kNilIndex) {
        jobs_[j.next].prev = j.prev;
      } else {
        jobs_tail_ = j.prev;
      }
      j.next = jobs_free_;
      jobs_free_ = i;
      num_jobs_--;
    }
    i = next;
  }
  Reschedule();
  for (InlineTask& fn : done_scratch_) {
    fn();
  }
  done_scratch_.clear();
}

void CpuModel::BeginCompute(SimDuration demand, InlineTask done) {
  ACTOP_CHECK(static_cast<bool>(done));
  if (demand <= 0) {
    sim_->ScheduleAfter(0, std::move(done));
    return;
  }
  const uint32_t slot = AllocJob(demand, std::move(done));
  const int over = runnable_jobs() + 1 - cores_;
  if (quantum_ > 0 && over > 0) {
    const double mean = static_cast<double>(quantum_) * static_cast<double>(over) /
                        static_cast<double>(cores_);
    const auto delay = static_cast<SimDuration>(rng_.NextExp(mean) + 0.5);
    ready_jobs_++;
    sim_->ScheduleAfter(delay, [this, slot] {
      ready_jobs_--;
      StartParkedJob(slot);
    });
    return;
  }
  StartParkedJob(slot);
}

uint32_t CpuModel::AllocJob(SimDuration demand, InlineTask done) {
  uint32_t slot;
  if (jobs_free_ != kNilIndex) {
    slot = jobs_free_;
    jobs_free_ = jobs_[slot].next;
  } else {
    jobs_.emplace_back();
    slot = static_cast<uint32_t>(jobs_.size() - 1);
  }
  Job& j = jobs_[slot];
  j.remaining = static_cast<double>(demand);
  j.done = std::move(done);
  j.prev = kNilIndex;
  j.next = kNilIndex;
  return slot;
}

void CpuModel::LinkJob(uint32_t slot) {
  Job& j = jobs_[slot];
  j.prev = jobs_tail_;
  j.next = kNilIndex;
  if (jobs_tail_ != kNilIndex) {
    jobs_[jobs_tail_].next = slot;
  } else {
    jobs_head_ = slot;
  }
  jobs_tail_ = slot;
  num_jobs_++;
}

void CpuModel::StartParkedJob(uint32_t slot) {
  AdvanceTo(sim_->now());
  LinkJob(slot);
  Reschedule();
}

void CpuModel::set_total_threads(int total_threads) {
  ACTOP_CHECK(total_threads >= 1);
  total_threads_ = total_threads;
}

void CpuModel::EnablePauses(SimDuration mean_interval, SimDuration base_duration,
                            double per_thread_factor, double exponent) {
  ACTOP_CHECK(mean_interval > 0);
  ACTOP_CHECK(base_duration >= 0);
  ACTOP_CHECK(per_thread_factor >= 0.0);
  ACTOP_CHECK(exponent >= 1.0);
  ACTOP_CHECK(!pauses_enabled_);
  pauses_enabled_ = true;
  pause_mean_interval_ = mean_interval;
  pause_base_duration_ = base_duration;
  pause_per_thread_factor_ = per_thread_factor;
  pause_exponent_ = exponent;
  SchedulePause();
}

void CpuModel::SchedulePause() {
  const auto gap = static_cast<SimDuration>(
      rng_.NextExp(static_cast<double>(pause_mean_interval_)) + 0.5);
  sim_->ScheduleAfter(gap, [this] { BeginPause(); });
}

void CpuModel::BeginPause() {
  AdvanceTo(sim_->now());
  paused_ = true;
  Reschedule();  // cancels the pending completion while paused
  const int excess = std::max(0, total_threads_ - cores_);
  const double growth =
      std::pow(1.0 + pause_per_thread_factor_ * static_cast<double>(excess), pause_exponent_);
  const auto duration =
      static_cast<SimDuration>(static_cast<double>(pause_base_duration_) * growth);
  sim_->ScheduleAfter(duration, [this] { EndPause(); });
}

void CpuModel::EndPause() {
  AdvanceTo(sim_->now());
  paused_ = false;
  Reschedule();
  SchedulePause();
}

double CpuModel::busy_core_nanos() const {
  double busy = busy_core_nanos_;
  const auto dt = static_cast<double>(sim_->now() - last_update_);
  if (dt > 0.0) {
    if (paused_) {
      busy += dt * static_cast<double>(cores_);
    } else if (num_jobs_ > 0) {
      busy += dt * std::min<double>(num_jobs_, cores_);
    }
  }
  return busy;
}

}  // namespace actop::sedaref
