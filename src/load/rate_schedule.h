// Time-varying arrival-rate curves for open-loop traffic generation.
//
// A RateSchedule is a base rate (requests per second) modulated by a product
// of independent components, each a multiplier >= 0 at every instant:
//
//   * DiurnalCycle — 1 + amplitude * sin(2*pi*t/period + phase): the day/night
//     swing of an interactive service, compressed into simulation seconds.
//   * RateStep     — `factor` inside [start, end), 1 outside: a flash crowd
//     that arrives and stays (launch day, a failover absorbing a region).
//   * RateSpike    — 1 + (factor-1) * exp(-(t-at)/decay) for t >= at: a viral
//     event whose traffic surges instantly and decays exponentially.
//
// Because the components multiply, the peak of the product is bounded by the
// product of per-component maxima, which gives the thinning sampler in
// arrival.h a cheap, correct envelope (PeakRate()).
//
// SyncBurst entries are not part of the rate function: they model
// synchronized arrivals at one instant (an IoT fleet reconnecting after an
// outage, a push notification waking every client at once) and are issued
// verbatim by the OpenLoopDriver on top of the Poisson stream.

#ifndef SRC_LOAD_RATE_SCHEDULE_H_
#define SRC_LOAD_RATE_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"

namespace actop {

struct DiurnalCycle {
  SimDuration period = 0;
  double amplitude = 0.0;  // in [0, 1): multiplier stays positive
  double phase = 0.0;      // radians
};

struct RateStep {
  SimTime start = 0;
  SimTime end = 0;     // exclusive
  double factor = 1.0; // >= 0
};

struct RateSpike {
  SimTime at = 0;
  double factor = 1.0;     // instantaneous multiplier at `at` (>= 1)
  SimDuration decay = 0;   // exponential decay time constant (> 0)
};

struct SyncBurst {
  SimTime at = 0;
  uint64_t count = 0;  // simultaneous arrivals injected at `at`
};

class RateSchedule {
 public:
  explicit RateSchedule(double base_rate_per_s);

  RateSchedule& AddDiurnal(SimDuration period, double amplitude, double phase = 0.0);
  RateSchedule& AddStep(SimTime start, SimTime end, double factor);
  RateSchedule& AddSpike(SimTime at, double factor, SimDuration decay);
  RateSchedule& AddBurst(SimTime at, uint64_t count);

  // Instantaneous rate in requests per second at simulated time `t`.
  double RateAt(SimTime t) const;

  // Upper bound on RateAt over all t (product of per-component maxima).
  double PeakRate() const;

  // Expected number of Poisson arrivals in [t0, t1): the integral of RateAt,
  // evaluated by fixed-step trapezoidal quadrature (deterministic; used by
  // the statistical acceptance tests and the scenario reports). Burst
  // arrivals are not included — see BurstArrivals.
  double ExpectedArrivals(SimTime t0, SimTime t1) const;

  // Sum of SyncBurst counts with `at` in [t0, t1).
  uint64_t BurstArrivals(SimTime t0, SimTime t1) const;

  const std::vector<SyncBurst>& bursts() const { return bursts_; }

 private:
  double base_rate_;
  std::vector<DiurnalCycle> diurnal_;
  std::vector<RateStep> steps_;
  std::vector<RateSpike> spikes_;
  std::vector<SyncBurst> bursts_;
};

}  // namespace actop

#endif  // SRC_LOAD_RATE_SCHEDULE_H_
