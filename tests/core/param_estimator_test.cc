#include "src/core/param_estimator.h"

#include <gtest/gtest.h>

#include "src/common/sim_time.h"

namespace actop {
namespace {

StageWindow MakeWindow(uint64_t events, double mean_z_us, double mean_x_us) {
  StageWindow w;
  w.arrivals = events;
  w.completions = events;
  w.sum_wallclock = mean_z_us * 1e3 * static_cast<double>(events);
  w.sum_compute = mean_x_us * 1e3 * static_cast<double>(events);
  return w;
}

TEST(ParamEstimatorTest, NotReadyBeforeData) {
  ParamEstimator est(EstimatorConfig{.no_blocking = {true, false}});
  EXPECT_FALSE(est.ready());
}

TEST(ParamEstimatorTest, LambdaFromArrivalCounts) {
  ParamEstimator est(EstimatorConfig{.no_blocking = {true}});
  est.AddWindow({MakeWindow(500, 100.0, 100.0)}, Seconds(1));
  ASSERT_TRUE(est.ready());
  const auto params = est.Estimate();
  EXPECT_NEAR(params[0].lambda, 500.0, 1e-6);
}

TEST(ParamEstimatorTest, NoContentionNoBlockingGivesBetaOne) {
  // z == x: no ready time, no blocking -> s = 1/x, beta = 1.
  ParamEstimator est(EstimatorConfig{.no_blocking = {true}});
  est.AddWindow({MakeWindow(1000, 100.0, 100.0)}, Seconds(1));
  const auto params = est.Estimate();
  EXPECT_NEAR(est.alpha(), 0.0, 1e-9);
  EXPECT_NEAR(params[0].s, 1e9 / static_cast<double>(Micros(100)), 1.0);
  EXPECT_NEAR(params[0].beta, 1.0, 1e-9);
}

TEST(ParamEstimatorTest, AlphaFromNoBlockingStages) {
  // No-blocking stage: z = 150 µs for x = 100 µs -> α = 0.5.
  ParamEstimator est(EstimatorConfig{.no_blocking = {true, false}});
  est.AddWindow({MakeWindow(1000, 150.0, 100.0), MakeWindow(1000, 400.0, 100.0)}, Seconds(1));
  EXPECT_NEAR(est.alpha(), 0.5, 1e-9);
}

TEST(ParamEstimatorTest, BlockingStageInference) {
  // Following Figure 9: blocking stage has z = x + w + r with r = α·x.
  // α = 0.5 (from the no-blocking stage), x = 100 µs, w = 250 µs
  // -> z = 100 + 250 + 50 = 400 µs; s = 1/(z−r) = 1/350 µs; β = 100/350.
  ParamEstimator est(EstimatorConfig{.no_blocking = {true, false}});
  est.AddWindow({MakeWindow(1000, 150.0, 100.0), MakeWindow(1000, 400.0, 100.0)}, Seconds(1));
  const auto params = est.Estimate();
  EXPECT_NEAR(params[1].s, 1e9 / static_cast<double>(Micros(350)), 10.0);
  EXPECT_NEAR(params[1].beta, 100.0 / 350.0, 1e-6);
}

TEST(ParamEstimatorTest, RecoversTrueServiceRateExactly) {
  // End-to-end inversion check: construct measurements from known
  // (x, w, alpha) and verify s and beta are recovered.
  const double x0 = 80.0;
  const double x1 = 120.0;
  const double w1 = 300.0;
  const double alpha = 0.35;
  ParamEstimator est(EstimatorConfig{.no_blocking = {true, false}});
  est.AddWindow(
      {
          MakeWindow(1000, x0 * (1 + alpha), x0),
          MakeWindow(1000, x1 * (1 + alpha) + w1, x1),
      },
      Seconds(1));
  const auto params = est.Estimate();
  EXPECT_NEAR(params[1].s, 1e9 / static_cast<double>(MicrosF(x1 + w1)), 50.0);
  EXPECT_NEAR(params[1].beta, x1 / (x1 + w1), 1e-3);
}

TEST(ParamEstimatorTest, LowTrafficWindowLeavesEstimateUnchanged) {
  ParamEstimator est(EstimatorConfig{.no_blocking = {true}, .min_completions = 50});
  est.AddWindow({MakeWindow(1000, 200.0, 100.0)}, Seconds(1));
  const double s_before = est.Estimate()[0].s;
  // A tiny window with wild numbers must not move the service estimate.
  est.AddWindow({MakeWindow(3, 9999.0, 1.0)}, Seconds(1));
  EXPECT_NEAR(est.Estimate()[0].s, s_before, s_before * 1e-9);
}

TEST(ParamEstimatorTest, SmoothingBlendsWindows) {
  ParamEstimator est(EstimatorConfig{.no_blocking = {true}});
  est.AddWindow({MakeWindow(1000, 100.0, 100.0)}, Seconds(1));
  est.AddWindow({MakeWindow(2000, 100.0, 100.0)}, Seconds(1));
  EXPECT_NEAR(est.Estimate()[0].lambda, 1500.0, 1e-6);
}

TEST(ParamEstimatorTest, IdleStageGetsZeroLambda) {
  ParamEstimator est(EstimatorConfig{.no_blocking = {true, true}});
  est.AddWindow({MakeWindow(1000, 120.0, 100.0), StageWindow{}}, Seconds(1));
  ASSERT_TRUE(est.ready());
  const auto params = est.Estimate();
  EXPECT_DOUBLE_EQ(params[1].lambda, 0.0);
}

TEST(ParamEstimatorTest, LowTrafficWindowStillUpdatesLambda) {
  // A window with plenty of arrivals but too few completions to trust its
  // z/x means (a burst landed right at the window edge) must still feed the
  // arrival-rate estimate: λ is measured from arrivals alone, and the
  // controller needs to see the burst even before anything finishes.
  ParamEstimator est(EstimatorConfig{.no_blocking = {true}, .min_completions = 50});
  est.AddWindow({MakeWindow(1000, 200.0, 100.0)}, Seconds(1));
  const double s_before = est.Estimate()[0].s;

  StageWindow burst;
  burst.arrivals = 2000;
  burst.completions = 3;  // < min_completions: z/x means are garbage
  burst.sum_wallclock = 9999.0 * 1e3 * 3;
  burst.sum_compute = 1.0 * 1e3 * 3;
  est.AddWindow({burst}, Seconds(1));

  // λ blends 1000 and 2000 with smoothing 0.5; the service estimate holds.
  EXPECT_NEAR(est.Estimate()[0].lambda, 1500.0, 1e-6);
  EXPECT_NEAR(est.Estimate()[0].s, s_before, s_before * 1e-9);
}

TEST(ParamEstimatorTest, AlphaGuardIgnoresNegativeContention) {
  // Bucketed timers can report z̄ slightly below x̄ on an uncontended stage.
  // The per-stage α contribution is clamped at zero, so the other stage's
  // genuine contention is averaged against 0 rather than a negative value.
  ParamEstimator est(EstimatorConfig{.no_blocking = {true, true}});
  est.AddWindow({MakeWindow(1000, 90.0, 100.0), MakeWindow(1000, 150.0, 100.0)}, Seconds(1));
  EXPECT_NEAR(est.alpha(), 0.25, 1e-9);  // (max(0, -0.1) + 0.5) / 2
}

TEST(ParamEstimatorTest, WallclockBelowComputeClampsToComputeRate) {
  // Same measurement skew on a lone stage: α = 0 and z̄ < x̄, so the
  // effective service time z̄ − r would undercut the measured compute time;
  // s clamps to 1/x̄ with β = 1.
  ParamEstimator est(EstimatorConfig{.no_blocking = {true}});
  est.AddWindow({MakeWindow(1000, 90.0, 100.0)}, Seconds(1));
  EXPECT_NEAR(est.alpha(), 0.0, 1e-12);
  const auto params = est.Estimate();
  EXPECT_NEAR(params[0].s, 1e9 / static_cast<double>(Micros(100)), 10.0);
  EXPECT_NEAR(params[0].beta, 1.0, 1e-9);
}

TEST(ParamEstimatorTest, ServiceTimeNeverBelowCompute) {
  // If α over-estimates ready time (z−r < x), s must be clamped to 1/x.
  ParamEstimator est(EstimatorConfig{.no_blocking = {true, false}});
  // No-blocking stage with huge contention -> α = 2.0.
  // Blocking stage with almost no contention: z = 110, x = 100; r = 200 > z.
  est.AddWindow({MakeWindow(1000, 300.0, 100.0), MakeWindow(1000, 110.0, 100.0)}, Seconds(1));
  const auto params = est.Estimate();
  EXPECT_NEAR(params[1].s, 1e9 / static_cast<double>(Micros(100)), 10.0);
  EXPECT_LE(params[1].beta, 1.0);
}

}  // namespace
}  // namespace actop
