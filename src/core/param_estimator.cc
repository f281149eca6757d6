#include "src/core/param_estimator.h"

#include <algorithm>

#include "src/common/check.h"

namespace actop {

namespace {

constexpr double kSmoothing = 0.5;  // EWMA factor for λ, z̄, x̄ across windows

}  // namespace

ParamEstimator::ParamEstimator(EstimatorConfig config) : config_(std::move(config)) {
  ACTOP_CHECK(!config_.no_blocking.empty());
  ACTOP_CHECK(std::find(config_.no_blocking.begin(), config_.no_blocking.end(), true) !=
              config_.no_blocking.end());
  stages_.resize(config_.no_blocking.size());
  for (auto& st : stages_) {
    st.lambda = Ewma(kSmoothing);
    st.mean_z = Ewma(kSmoothing);
    st.mean_x = Ewma(kSmoothing);
  }
  alpha_ = Ewma(kSmoothing);
}

void ParamEstimator::AddWindow(const std::vector<StageWindow>& windows,
                               SimDuration window_length) {
  ACTOP_CHECK(windows.size() == stages_.size());
  ACTOP_CHECK(window_length > 0);
  const double window_sec = ToSeconds(window_length);

  // First pass: per-stage arrival rates and mean z/x; α from S0 stages.
  double alpha_sum = 0.0;
  int alpha_count = 0;
  for (size_t i = 0; i < windows.size(); i++) {
    const StageWindow& w = windows[i];
    stages_[i].lambda.Add(static_cast<double>(w.arrivals) / window_sec);
    if (w.completions < config_.min_completions) {
      continue;
    }
    const double mean_z = w.mean_wallclock();
    const double mean_x = w.mean_compute();
    if (mean_x <= 0.0) {
      continue;
    }
    stages_[i].mean_z.Add(mean_z);
    stages_[i].mean_x.Add(mean_x);
    if (config_.no_blocking[i]) {
      alpha_sum += std::max(0.0, (mean_z - mean_x) / mean_x);
      alpha_count++;
    }
  }
  if (alpha_count > 0) {
    alpha_.Add(alpha_sum / static_cast<double>(alpha_count));
  }
}

bool ParamEstimator::ready() const {
  if (!alpha_.initialized()) {
    return false;
  }
  for (const auto& st : stages_) {
    if (!st.lambda.initialized()) {
      return false;
    }
  }
  // At least one stage must have service-time estimates; stages that carry
  // no traffic are allowed to stay unknown.
  for (const auto& st : stages_) {
    if (st.mean_z.initialized()) {
      return true;
    }
  }
  return false;
}

const std::vector<StageParams>& ParamEstimator::Estimate() const {
  params_scratch_.assign(stages_.size(), StageParams{});
  const double alpha = this->alpha();
  for (size_t i = 0; i < stages_.size(); i++) {
    const StageEstimate& st = stages_[i];
    StageParams& out = params_scratch_[i];
    out.lambda = st.lambda.initialized() ? st.lambda.value() : 0.0;
    if (!st.mean_z.initialized() || !st.mean_x.initialized()) {
      // No traffic observed: conservative defaults keep the optimizer from
      // starving an idle stage (it gets the minimum thread count anyway).
      out.lambda = 0.0;
      out.s = 1.0;
      out.beta = 1.0;
      continue;
    }
    const double mean_z = st.mean_z.value();
    const double mean_x = st.mean_x.value();
    const double r = alpha * mean_x;
    // Effective service time per event: z − r = x + w. Guard against α
    // over-estimation (z − r must be at least x).
    const double service_ns = std::max(mean_z - r, mean_x);
    out.s = 1e9 / service_ns;  // events per second per thread
    out.beta = std::clamp(mean_x / service_ns, 0.0, 1.0);
  }
  return params_scratch_;
}

}  // namespace actop
