#include "src/seda/emulator.h"

#include <numeric>
#include <utility>

#include "src/common/check.h"

namespace actop {

namespace {

// The §5.1 emulator models no scheduling-quantum (dispatch) latency.
constexpr SimDuration kDispatchQuantum = 0;

}  // namespace

Emulator::Emulator(Simulation* sim, EmulatorConfig config)
    : sim_(sim), config_(std::move(config)), rng_(config_.seed) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(!config_.stages.empty());
  ACTOP_CHECK(config_.arrival_rate > 0.0);
  cpu_ = std::make_unique<CpuModel>(sim_, config_.cores, config_.kappa, kDispatchQuantum,
                                    config_.seed ^ 0x9e3779b9);
  int total_threads = 0;
  for (const auto& sc : config_.stages) {
    ACTOP_CHECK(sc.initial_threads >= 1);
    stages_.push_back(std::make_unique<Stage>(sim_, cpu_.get(), sc.name, sc.initial_threads));
    total_threads += sc.initial_threads;
  }
  cpu_->set_total_threads(total_threads);
}

void Emulator::ApplyThreadAllocation(const std::vector<int>& threads) {
  ACTOP_CHECK(threads.size() == stages_.size());
  int total = 0;
  for (size_t i = 0; i < stages_.size(); i++) {
    ACTOP_CHECK(threads[i] >= 1);
    stages_[i]->set_threads(threads[i]);
    total += threads[i];
  }
  cpu_->set_total_threads(total);
}

void Emulator::Start() {
  ACTOP_CHECK(!running_);
  running_ = true;
  ScheduleNextArrival();
}

void Emulator::Stop() { running_ = false; }

void Emulator::ScheduleNextArrival() {
  const double mean_gap_ns = 1e9 / config_.arrival_rate;
  const auto gap = static_cast<SimDuration>(rng_.NextExp(mean_gap_ns) + 0.5);
  sim_->ScheduleAfter(gap, [this] {
    if (!running_) {
      return;
    }
    InjectRequest();
    ScheduleNextArrival();
  });
}

SimDuration Emulator::SampleCompute(const EmulatorStageConfig& cfg) {
  if (cfg.mean_compute <= 0) {
    return 0;
  }
  if (config_.deterministic_service) {
    return cfg.mean_compute;
  }
  return rng_.NextExpDuration(cfg.mean_compute);
}

SimDuration Emulator::SampleBlocking(const EmulatorStageConfig& cfg) {
  if (cfg.mean_blocking <= 0) {
    return 0;
  }
  if (config_.deterministic_service) {
    return cfg.mean_blocking;
  }
  return rng_.NextExpDuration(cfg.mean_blocking);
}

void Emulator::InjectRequest() { RunThroughStage(0, sim_->now()); }

void Emulator::RunThroughStage(size_t index, SimTime arrival_time) {
  const EmulatorStageConfig& cfg = config_.stages[index];
  StageEvent ev;
  ev.compute = SampleCompute(cfg);
  ev.blocking = SampleBlocking(cfg);
  ev.done = [this, index, arrival_time] {
    if (index + 1 < stages_.size()) {
      RunThroughStage(index + 1, arrival_time);
    } else {
      completed_++;
      latency_.Record(sim_->now() - arrival_time);
    }
  };
  stages_[index]->Enqueue(std::move(ev));
}

}  // namespace actop
