#include "src/core/thread_controller.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/thread_allocator.h"

namespace actop {

namespace {

// Bounds on every stage's thread count, for both controllers.
constexpr int kMinThreads = 1;
constexpr int kMaxThreads = 64;

}  // namespace

ModelThreadController::ModelThreadController(Simulation* sim, ThreadHost* host,
                                             ModelControllerConfig config)
    : sim_(sim),
      host_(host),
      config_(std::move(config)),
      estimator_(EstimatorConfig{.no_blocking = config_.no_blocking}) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(host != nullptr);
  ACTOP_CHECK(static_cast<int>(config_.no_blocking.size()) == host->num_stages());
  last_step_time_ = sim_->now();
}

void ModelThreadController::Start() {
  ACTOP_CHECK(periodic_id_ == 0);
  last_step_time_ = sim_->now();
  periodic_id_ = sim_->SchedulePeriodic(config_.period, [this] { StepOnce(); });
}

void ModelThreadController::Stop() {
  if (periodic_id_ != 0) {
    sim_->CancelPeriodic(periodic_id_);
    periodic_id_ = 0;
  }
}

void ModelThreadController::StepOnce() {
  const SimDuration window = std::max<SimDuration>(sim_->now() - last_step_time_, 1);
  last_step_time_ = sim_->now();
  CollectAndApply(window);
}

void ModelThreadController::CollectAndApply(SimDuration window_length) {
  const int k = host_->num_stages();
  windows_scratch_.clear();
  windows_scratch_.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; i++) {
    windows_scratch_.push_back(host_->stage(i).TakeWindow());
  }
  estimator_.AddWindow(windows_scratch_, window_length);
  if (!estimator_.ready()) {
    return;
  }

  AllocationProblem& problem = problem_scratch_;
  problem.stages = estimator_.Estimate();
  problem.processors = host_->cores();
  problem.eta = config_.eta;
  if (!IsFeasible(problem)) {
    // Overload: even a perfect allocation cannot drain the queues. Keep the
    // current allocation; the partitioning optimization (or admission
    // control) has to shed the load first.
    return;
  }

  std::vector<int> alloc =
      IntegerAllocation(problem, kMinThreads, kMaxThreads);
  if (alloc != host_->CurrentThreads()) {
    host_->ApplyThreadAllocation(alloc);
  }
  if (observer_) {
    observer_(alloc);
  }
}

QueueLengthThreadController::QueueLengthThreadController(Simulation* sim, ThreadHost* host,
                                                         QueueLengthControllerConfig config)
    : sim_(sim), host_(host), config_(config) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(host != nullptr);
}

void QueueLengthThreadController::Start() {
  ACTOP_CHECK(periodic_id_ == 0);
  periodic_id_ = sim_->SchedulePeriodic(config_.period, [this] { StepOnce(); });
}

void QueueLengthThreadController::Stop() {
  if (periodic_id_ != 0) {
    sim_->CancelPeriodic(periodic_id_);
    periodic_id_ = 0;
  }
}

void QueueLengthThreadController::StepOnce() {
  const int k = host_->num_stages();
  std::vector<int> alloc = host_->CurrentThreads();
  bool changed = false;
  for (int i = 0; i < k; i++) {
    const uint64_t qlen = host_->stage(i).queue_length();
    if (qlen > config_.high_threshold && alloc[static_cast<size_t>(i)] < kMaxThreads) {
      alloc[static_cast<size_t>(i)]++;
      changed = true;
    } else if (qlen < config_.low_threshold &&
               alloc[static_cast<size_t>(i)] > kMinThreads) {
      alloc[static_cast<size_t>(i)]--;
      changed = true;
    }
  }
  if (changed) {
    host_->ApplyThreadAllocation(alloc);
  }
  if (observer_) {
    observer_(alloc);
  }
}

}  // namespace actop
