// Generic multi-stage SEDA pipeline emulator.
//
// This is the stand-alone "SEDA emulator with 6 stages" the paper uses in
// §5.1 to demonstrate the oscillation of queue-length-based thread control
// (Figure 7). Requests arrive as a Poisson process and traverse the stages
// in order; each stage has exponential per-event CPU demand and optional
// synchronous blocking time.

#ifndef SRC_SEDA_EMULATOR_H_
#define SRC_SEDA_EMULATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/seda/cpu.h"
#include "src/seda/stage.h"
#include "src/seda/thread_host.h"
#include "src/sim/simulation.h"

namespace actop {

struct EmulatorStageConfig {
  std::string name;
  SimDuration mean_compute = Micros(50);  // exponential CPU demand per event
  SimDuration mean_blocking = 0;          // exponential blocking time (0 = none)
  int initial_threads = 1;
};

struct EmulatorConfig {
  int cores = 8;
  double kappa = 0.04;             // CPU over-subscription penalty
  double arrival_rate = 1000.0;    // requests per simulated second
  bool deterministic_service = false;  // fixed instead of exponential demands
  std::vector<EmulatorStageConfig> stages;
  uint64_t seed = 1;
};

class Emulator : public ThreadHost {
 public:
  Emulator(Simulation* sim, EmulatorConfig config);

  // Begins Poisson arrivals; call before running the simulation.
  void Start();
  // Stops generating new arrivals (in-flight requests drain).
  void Stop();

  // ThreadHost:
  int num_stages() override { return static_cast<int>(stages_.size()); }
  Stage& stage(int i) override { return *stages_[static_cast<size_t>(i)]; }
  int cores() const override { return config_.cores; }
  void ApplyThreadAllocation(const std::vector<int>& threads) override;

  CpuModel& cpu() { return *cpu_; }

  // End-to-end latency (arrival to last-stage completion), nanoseconds.
  const Histogram& latency() const { return latency_; }
  Histogram* mutable_latency() { return &latency_; }

  uint64_t completed_requests() const { return completed_; }

 private:
  void ScheduleNextArrival();
  void InjectRequest();
  void RunThroughStage(size_t index, SimTime arrival_time);
  SimDuration SampleCompute(const EmulatorStageConfig& cfg);
  SimDuration SampleBlocking(const EmulatorStageConfig& cfg);

  Simulation* sim_;
  EmulatorConfig config_;
  Rng rng_;
  std::unique_ptr<CpuModel> cpu_;
  std::vector<std::unique_ptr<Stage>> stages_;
  Histogram latency_;
  uint64_t completed_ = 0;
  bool running_ = false;
};

}  // namespace actop

#endif  // SRC_SEDA_EMULATOR_H_
