// Online estimation of the queuing-model parameters (§5.4).
//
// The runtime can measure, per stage and window: the arrival count, and for
// each completed event its wallclock time z and CPU time x. It cannot measure
// blocking time w directly (it may be hidden inside libraries). Following the
// paper, ready time is assumed proportional to compute time with the same
// factor α on all stages (fair OS scheduler assumption):
//     α  = mean over no-blocking stages of (z̄−x̄)/x̄
//     ri = α·x̄i,   si = 1/(z̄i − ri),   βi = x̄i/(z̄i − ri)
//
// Estimates are EWMA-smoothed across windows so a single quiet window does
// not destabilize the allocation.

#ifndef SRC_CORE_PARAM_ESTIMATOR_H_
#define SRC_CORE_PARAM_ESTIMATOR_H_

#include <vector>

#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/core/queuing_model.h"
#include "src/seda/stage.h"

namespace actop {

struct EstimatorConfig {
  // True for stages known to never issue synchronous blocking calls (the set
  // S0 in the paper); at least one stage must be in S0.
  std::vector<bool> no_blocking;
  // Windows with fewer completions than this leave the estimate unchanged.
  uint64_t min_completions = 20;
};

class ParamEstimator {
 public:
  explicit ParamEstimator(EstimatorConfig config);

  // Feeds one measurement window (one entry per stage, aligned with
  // config.no_blocking). `window_length` is the window's duration.
  void AddWindow(const std::vector<StageWindow>& windows, SimDuration window_length);

  // True once every stage has at least one usable estimate.
  bool ready() const;

  // Estimated per-stage parameters (rates in events/sec). Only valid when
  // ready(). Stages with no traffic get lambda = 0 and a conservative s.
  // The reference points into a scratch buffer owned by the estimator and is
  // invalidated by the next Estimate() call; callers that need to keep the
  // parameters copy them (vector copy-assign reuses the destination's
  // capacity, so a periodic controller still allocates nothing at steady
  // state).
  const std::vector<StageParams>& Estimate() const;

  // The current ready-time factor α (for tests/inspection).
  double alpha() const { return alpha_.initialized() ? alpha_.value() : 0.0; }

 private:
  struct StageEstimate {
    Ewma lambda{0.5};
    Ewma mean_z{0.5};
    Ewma mean_x{0.5};
  };

  EstimatorConfig config_;
  std::vector<StageEstimate> stages_;
  Ewma alpha_{0.5};
  // Backing store for Estimate(); sized once to the stage count.
  mutable std::vector<StageParams> params_scratch_;
};

}  // namespace actop

#endif  // SRC_CORE_PARAM_ESTIMATOR_H_
