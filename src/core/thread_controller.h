// Runtime thread-allocation controllers.
//
// ModelThreadController is ActOp's controller (§5): every control period it
// reads each stage's measurement window, refreshes the parameter estimates,
// solves problem (*) (closed form when η ≥ ζ, gradient otherwise), rounds to
// integers and applies the allocation.
//
// QueueLengthThreadController is the baseline from SEDA [33,34] used in the
// paper's Figure 7: every period, any stage with queue length > Th gains one
// thread and any stage with queue length < Tl loses one (floor of 1 thread).

#ifndef SRC_CORE_THREAD_CONTROLLER_H_
#define SRC_CORE_THREAD_CONTROLLER_H_

#include <functional>
#include <vector>

#include "src/common/sim_time.h"
#include "src/core/param_estimator.h"
#include "src/core/queuing_model.h"
#include "src/seda/thread_host.h"
#include "src/sim/simulation.h"

namespace actop {

struct ModelControllerConfig {
  SimDuration period = Seconds(1);
  double eta = 100e-6;  // thread penalty, seconds/thread (paper: 100 µs)
  std::vector<bool> no_blocking;  // S0 stages, aligned with the host's stages
};

class ModelThreadController {
 public:
  ModelThreadController(Simulation* sim, ThreadHost* host, ModelControllerConfig config);

  // Begins periodic control. Optional observer runs after each decision.
  void Start();
  void Stop();

  // Runs one control step immediately (used by tests).
  void StepOnce();

  // Observer invoked with the applied allocation after each step.
  void set_observer(std::function<void(const std::vector<int>&)> observer) {
    observer_ = std::move(observer);
  }

  const ParamEstimator& estimator() const { return estimator_; }

 private:
  void CollectAndApply(SimDuration window_length);

  Simulation* sim_;
  ThreadHost* host_;
  ModelControllerConfig config_;
  ParamEstimator estimator_;
  EventId periodic_id_ = 0;
  SimTime last_step_time_ = 0;
  std::function<void(const std::vector<int>&)> observer_;
  // Reused across control periods so the periodic step allocates nothing at
  // steady state (vector assign/copy into these reuses their capacity).
  std::vector<StageWindow> windows_scratch_;
  AllocationProblem problem_scratch_;
};

struct QueueLengthControllerConfig {
  SimDuration period = Seconds(30);  // paper samples every 30 s
  uint64_t high_threshold = 100;     // Th
  uint64_t low_threshold = 10;       // Tl
};

class QueueLengthThreadController {
 public:
  QueueLengthThreadController(Simulation* sim, ThreadHost* host,
                              QueueLengthControllerConfig config);

  void Start();
  void Stop();
  void StepOnce();

  void set_observer(std::function<void(const std::vector<int>&)> observer) {
    observer_ = std::move(observer);
  }

 private:
  Simulation* sim_;
  ThreadHost* host_;
  QueueLengthControllerConfig config_;
  EventId periodic_id_ = 0;
  std::function<void(const std::vector<int>&)> observer_;
};

}  // namespace actop

#endif  // SRC_CORE_THREAD_CONTROLLER_H_
