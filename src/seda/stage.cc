#include "src/seda/stage.h"

#include <utility>

#include "src/common/check.h"

namespace actop {

Stage::Stage(Simulation* sim, CpuModel* cpu, std::string name, int threads,
             size_t queue_capacity)
    : sim_(sim),
      cpu_(cpu),
      name_(std::move(name)),
      threads_(threads),
      queue_capacity_(queue_capacity) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(cpu != nullptr);
  ACTOP_CHECK(threads >= 1);
  last_queue_account_ = sim_->now();
}

void Stage::AccountQueueLength() {
  const SimTime now = sim_->now();
  const auto dt = static_cast<double>(now - last_queue_account_);
  if (dt > 0.0) {
    window_.queue_len_time_integral += dt * static_cast<double>(queue_.size());
  }
  last_queue_account_ = now;
}

void Stage::Enqueue(StageEvent&& event) {
  window_.arrivals++;
  if (queue_.size() >= queue_capacity_) {
    window_.rejections++;
    total_rejections_++;
    if (event.rejected) {
      // Deliver the rejection through the event queue to avoid synchronous
      // re-entry into the caller.
      sim_->ScheduleAfter(0, std::move(event.rejected));
    }
    return;
  }
  if (queue_.empty() && busy_ < threads_) {
    // Direct start. A push-then-pop would add zero queue wait and, with the
    // queue empty throughout, nothing to the queue-length integral (the
    // integral's clock may lag; the next account multiplies that lag by the
    // still-zero length).
    StartService(event.compute, event.blocking, std::move(event.done));
    return;
  }
  AccountQueueLength();
  queue_.push_back(QueuedEvent{event.compute, event.blocking, std::move(event.done),
                               sim_->now()});
  MaybeStartService();
}

void Stage::MaybeStartService() {
  while (busy_ < threads_ && !queue_.empty()) {
    AccountQueueLength();
    // Start in place, then pop: StartService moves the continuation into the
    // in-service slab and BeginCompute never re-enters this stage, so the
    // front stays put until the pop.
    QueuedEvent& front = queue_.front();
    window_.sum_queue_wait += static_cast<double>(sim_->now() - front.enqueue_time);
    StartService(front.compute, front.blocking, std::move(front.done));
    queue_.pop_front();
  }
}

void Stage::StartService(SimDuration compute, SimDuration blocking, InlineTask&& done) {
  busy_++;
  const uint32_t slot = in_service_.Alloc();
  InService& s = in_service_[slot];
  s.service_start = sim_->now();
  s.compute = compute;
  s.blocking = blocking;
  s.done = std::move(done);
  cpu_->BeginCompute(compute, [this, slot] { OnComputeDone(slot); });
}

void Stage::OnComputeDone(uint32_t slot) {
  if (in_service_[slot].blocking > 0) {
    sim_->ScheduleAfter(in_service_[slot].blocking, [this, slot] { FinishService(slot); });
    return;
  }
  FinishService(slot);
}

void Stage::FinishService(uint32_t slot) {
  // Copy the record out and recycle the slot before any callback runs: both
  // MaybeStartService and the continuation can start new service (and thus
  // grow or reuse the slab).
  const SimTime service_start = in_service_[slot].service_start;
  const SimDuration compute = in_service_[slot].compute;
  const SimDuration blocking = in_service_[slot].blocking;
  InlineTask done = std::move(in_service_[slot].done);
  in_service_.Free(slot);

  const SimTime now = sim_->now();
  window_.completions++;
  total_completions_++;
  window_.sum_wallclock += static_cast<double>(now - service_start);
  window_.sum_compute += static_cast<double>(compute);
  window_.sum_blocking += static_cast<double>(blocking);
  ACTOP_CHECK(busy_ > 0);
  busy_--;
  // Start the next queued event before running the continuation so that a
  // continuation enqueueing into this same stage observes a consistent state.
  MaybeStartService();
  if (done) {
    done();
  }
}

void Stage::set_threads(int threads) {
  ACTOP_CHECK(threads >= 1);
  threads_ = threads;
  MaybeStartService();
}

StageWindow Stage::TakeWindow() {
  AccountQueueLength();
  StageWindow out = window_;
  window_ = StageWindow{};
  return out;
}

}  // namespace actop
