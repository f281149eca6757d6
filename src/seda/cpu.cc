#include "src/seda/cpu.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace actop {

namespace {
// Jobs whose finish tag is within this much virtual service of V are
// considered complete (same threshold, in the same units, as the seed
// model's remaining-demand epsilon: virtual service is measured in ns of
// dedicated-core time, exactly like demand).
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
  completion_timer_ = sim_->AddTimer(
      [](void* self) { static_cast<CpuModel*>(self)->OnCompletion(); }, this);
  wake_timer_ = sim_->AddTimer([](void* self) { static_cast<CpuModel*>(self)->OnWake(); }, this);
}

CpuModel::~CpuModel() {
  sim_->RemoveTimer(completion_timer_);
  sim_->RemoveTimer(wake_timer_);
}

double CpuModel::Efficiency() const {
  const int excess = std::max(0, active_jobs() - cores_);
  return 1.0 / (1.0 + kappa_ * static_cast<double>(excess));
}

double CpuModel::Rate() const {
  if (paused_) {
    return 0.0;
  }
  const int n = active_jobs();
  if (n == 0) {
    return 0.0;
  }
  const double share = std::min(1.0, static_cast<double>(cores_) / static_cast<double>(n));
  return share * Efficiency();
}

double CpuModel::BusyCores() const {
  if (paused_) {
    return static_cast<double>(cores_);
  }
  return std::min<double>(active_jobs(), cores_);
}

void CpuModel::AdvanceTo(SimTime t) {
  ACTOP_CHECK(t >= last_update_);
  const auto dt = static_cast<double>(t - last_update_);
  if (dt > 0.0) {
    if (!paused_ && !heap_.empty()) {
      vtime_ += dt * Rate();
    }
    busy_core_nanos_ += dt * BusyCores();
  }
  last_update_ = t;
}

// --- scheduling -------------------------------------------------------------

void CpuModel::Reschedule() {
  if (heap_.empty() || paused_) {
    if (completing_) {
      completion_due_ = false;
    } else {
      sim_->DisarmTimer(completion_timer_);
    }
    return;
  }
  const double rate = Rate();
  ACTOP_CHECK(rate > 0.0);
  // The heap root holds the smallest finish tag — the seed's full
  // min-remaining rescan reduced to a peek.
  const double wait = std::max(0.0, heap_.top().finish_v - vtime_) / rate;
  const SimTime when = sim_->now() + static_cast<SimDuration>(std::ceil(wait));
  if (completing_) {
    // The seq is drawn now, where a re-key outside OnCompletion would draw
    // it, so the key OnCompletion arms at its end is the one this call sets.
    completion_due_ = true;
    completion_when_ = when;
    completion_seq_ = sim_->ReserveSeq();
    return;
  }
  sim_->ArmTimer(completion_timer_, when);
}

void CpuModel::OnCompletion() {
  completing_ = true;
  AdvanceTo(sim_->now());
  batch_scratch_.clear();
  done_scratch_.clear();
  const double cutoff = vtime_ + kDoneEpsilon;
  while (!heap_.empty() && heap_.top().finish_v <= cutoff) {
    batch_scratch_.push_back(heap_.top().key);
    heap_.PopRoot();
  }
  // Key order is link-seq order, which is the seed's insertion order: ties
  // complete, free their slots, and fire their callbacks exactly as the
  // seed's in-order list sweep did.
  if (batch_scratch_.size() > 1) {
    std::sort(batch_scratch_.begin(), batch_scratch_.end());
  }
  for (const uint64_t key : batch_scratch_) {
    const auto slot = static_cast<uint32_t>(key & kSlotMask);
    done_scratch_.push_back(std::move(jobs_[slot].done));
    jobs_.Free(slot);
  }
  if (heap_.empty()) {
    vtime_ = 0.0;  // idle: rebase so V never outgrows double precision
  }
  Reschedule();
  for (InlineTask& fn : done_scratch_) {
    fn();
  }
  done_scratch_.clear();
  completing_ = false;
  if (completion_due_) {
    completion_due_ = false;
    sim_->ArmTimer(completion_timer_, completion_when_, completion_seq_);
  }
}

void CpuModel::OnWake() {
  const uint32_t slot = parked_.top().slot();
  parked_.PopRoot();
  if (!parked_.empty()) {
    sim_->ArmTimer(wake_timer_, parked_.top().wake, parked_.top().seq());
  }
  StartParkedJob(slot);
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
    const ParkedEntry entry{sim_->now() + delay, (sim_->ReserveSeq() << kSlotBits) | slot};
    parked_.Push(entry);
    if (parked_.top().key == entry.key) {  // a new head: the wake timer moves up
      sim_->ArmTimer(wake_timer_, entry.wake, entry.seq());
    }
    return;
  }
  StartParkedJob(slot);
}

uint32_t CpuModel::AllocJob(SimDuration demand, InlineTask done) {
  const uint32_t slot = jobs_.Alloc();
  // Slot indices must fit the low kSlotBits of a heap key.
  ACTOP_CHECK(slot <= kSlotMask);
  Job& j = jobs_[slot];
  j.finish_v = static_cast<double>(demand);  // raw demand until linked
  j.done = std::move(done);
  return slot;
}

void CpuModel::StartParkedJob(uint32_t slot) {
  AdvanceTo(sim_->now());
  Job& j = jobs_[slot];
  j.finish_v = vtime_ + j.finish_v;  // demand -> finish tag at link time
  ACTOP_CHECK(next_seq_ <= kMaxSeq);
  heap_.Push(HeapEntry{j.finish_v, (next_seq_++ << kSlotBits) | slot});
  Reschedule();
}

void CpuModel::set_total_threads(int total_threads) {
  ACTOP_CHECK(total_threads >= 1);
  total_threads_ = total_threads;
  // A parked job is a thread waiting for a quantum, so the stages' threads
  // bound the parked heap: sizing it here keeps its growth out of the run.
  parked_.Reserve(static_cast<size_t>(total_threads));
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
  Reschedule();  // disarms the completion timer while paused
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
  const auto dt = static_cast<double>(sim_->now() - last_update_);
  return busy_core_nanos_ + dt * BusyCores();
}

}  // namespace actop
