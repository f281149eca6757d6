// Differential tests: the virtual-time CpuModel (src/seda/cpu.{h,cc}) against
// the retained seed implementation (oracles/cpu_reference.{h,cc}).
//
// The two models compute the same real-valued schedule — under egalitarian
// sharing a job's completion instant is fully determined by the rate
// trajectory, and both implementations integrate the identical Rate() — but
// they round differently: the seed subtracts dt*rate from every job's
// remaining demand, the rewrite adds dt*rate to one global clock and compares
// finish tags against it. Each completion event lands at now + ceil(wait),
// so whenever the two roundings put `wait` on opposite sides of an integer
// the event shifts by 1 ns; overlapping jobs then see slightly different
// rate-segment boundaries and the shift can propagate through a busy period.
// The deviation stays at nanosecond scale (kToleranceNs below, with margin)
// against service times of tens of microseconds; closed-loop experiments such
// as fig10b therefore reproduce seed results to within seed-to-seed noise
// (documented in EXPERIMENTS.md) rather than byte-identically.
//
// What must match exactly, and is asserted exactly:
//   * the set of jobs completed (every job, by identity),
//   * completion times in all no-rounding scenarios (idle-start jobs),
//   * rng draw sequences, whenever the draw *sites* coincide (quantum
//     scenarios below keep the CPU strictly oversubscribed so the
//     park-or-start decision never depends on a shifted completion).

#include "oracles/cpu_reference.h"
#include "src/seda/cpu.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/sim/simulation.h"

namespace actop {
namespace {

// Measured worst case across the seeds below is ≤ 3 ns (sub-ppm of the
// shortest service time); fail loudly if a future change grows it.
constexpr SimDuration kToleranceNs = 8;

struct Arrival {
  SimTime at = 0;
  SimDuration demand = 0;
};

struct ScenarioConfig {
  int cores = 4;
  double kappa = 0.0;
  SimDuration quantum = 0;
  uint64_t cpu_seed = 1;
  bool pauses = false;
  SimDuration pause_interval = Millis(5);
  SimDuration pause_duration = Micros(200);
  double pause_thread_factor = 0.05;
  int total_threads = 0;  // 0: leave at default (cores)
};

// Runs one model over a fixed (open-loop) arrival schedule and returns each
// job's completion time, indexed by arrival order.
template <typename Model>
std::vector<SimTime> RunSchedule(const ScenarioConfig& cfg, const std::vector<Arrival>& arrivals) {
  Simulation sim;
  Model cpu(&sim, cfg.cores, cfg.kappa, cfg.quantum, cfg.cpu_seed);
  if (cfg.total_threads > 0) cpu.set_total_threads(cfg.total_threads);
  if (cfg.pauses) {
    cpu.EnablePauses(cfg.pause_interval, cfg.pause_duration, cfg.pause_thread_factor);
  }
  std::vector<SimTime> done(arrivals.size(), -1);
  for (size_t i = 0; i < arrivals.size(); i++) {
    sim.ScheduleAt(arrivals[i].at, [&sim, &cpu, &done, &arrivals, i] {
      cpu.BeginCompute(arrivals[i].demand, [&sim, &done, i] { done[i] = sim.now(); });
    });
  }
  // With pauses enabled the pause chain reschedules itself forever; run to a
  // deadline far past the last possible completion instead of to empty.
  sim.RunUntil(Seconds(30));
  return done;
}

std::vector<Arrival> PoissonArrivals(uint64_t seed, int n, double mean_gap_ns,
                                     double mean_demand_ns) {
  Rng rng(seed);
  std::vector<Arrival> arrivals;
  arrivals.reserve(n);
  SimTime t = 0;
  for (int i = 0; i < n; i++) {
    t += static_cast<SimDuration>(rng.NextExp(mean_gap_ns) + 0.5);
    const auto d = static_cast<SimDuration>(rng.NextExp(mean_demand_ns) + 1.0);
    arrivals.push_back(Arrival{t, d});
  }
  return arrivals;
}

void ExpectEquivalent(const ScenarioConfig& cfg, const std::vector<Arrival>& arrivals,
                      SimDuration tolerance) {
  const std::vector<SimTime> ref = RunSchedule<sedaref::CpuModel>(cfg, arrivals);
  const std::vector<SimTime> opt = RunSchedule<CpuModel>(cfg, arrivals);
  ASSERT_EQ(ref.size(), opt.size());
  for (size_t i = 0; i < ref.size(); i++) {
    ASSERT_GE(ref[i], 0) << "reference left job " << i << " incomplete";
    ASSERT_GE(opt[i], 0) << "optimized model left job " << i << " incomplete";
    ASSERT_LE(std::abs(ref[i] - opt[i]), tolerance)
        << "job " << i << ": reference " << ref[i] << " vs optimized " << opt[i];
  }
}

// --- exact equivalence: paths with no rounding divergence -------------------

TEST(CpuDifferentialTest, SequentialJobsMatchExactly) {
  // One job at a time from an idle CPU: rate is exactly 1.0 and the rewrite
  // rebases V to zero at idle, so both models schedule completion at exactly
  // arrival + demand. Zero tolerance.
  ScenarioConfig cfg;
  cfg.cores = 2;
  std::vector<Arrival> arrivals;
  SimTime t = 0;
  Rng rng(7);
  for (int i = 0; i < 200; i++) {
    const auto d = static_cast<SimDuration>(rng.NextBounded(50000) + 1);
    arrivals.push_back(Arrival{t, d});
    t += d + static_cast<SimDuration>(rng.NextBounded(1000)) + 1;  // gap > service
  }
  ExpectEquivalent(cfg, arrivals, 0);
}

TEST(CpuDifferentialTest, UnderSubscribedBurstsMatchExactly) {
  // Simultaneous bursts that never exceed the core count: every job runs at
  // rate 1.0 from a V rebased to zero, so finish tags and waits are computed
  // without any rounding in either model.
  ScenarioConfig cfg;
  cfg.cores = 8;
  std::vector<Arrival> arrivals;
  Rng rng(11);
  SimTime t = 0;
  for (int burst = 0; burst < 100; burst++) {
    const int k = 1 + static_cast<int>(rng.NextBounded(8));
    for (int j = 0; j < k; j++) {
      arrivals.push_back(Arrival{t, static_cast<SimDuration>(rng.NextBounded(40000) + 1)});
    }
    t += 100000;  // longer than the largest demand: the burst fully drains
  }
  ExpectEquivalent(cfg, arrivals, 0);
}

// --- bounded equivalence: contended processor sharing -----------------------

TEST(CpuDifferentialTest, ContendedPoissonLoadManySeeds) {
  // Heavily contended open-loop load (offered load ~2x capacity during the
  // arrival phase) across seeds, cores, and kappa. Rounding can shift events
  // by nanoseconds; every job must still complete within kToleranceNs of the
  // reference.
  for (uint64_t seed = 1; seed <= 10; seed++) {
    ScenarioConfig cfg;
    cfg.cores = 1 + static_cast<int>(seed % 4);           // 1..4
    cfg.kappa = (seed % 3) * 0.05;                        // 0, 0.05, 0.1
    const double mean_demand = 20000.0;
    const double mean_gap = mean_demand / (2.0 * cfg.cores);
    const std::vector<Arrival> arrivals = PoissonArrivals(seed * 977, 1500, mean_gap, mean_demand);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectEquivalent(cfg, arrivals, kToleranceNs);
  }
}

TEST(CpuDifferentialTest, ZeroDemandJobsInterleaved) {
  // Zero-demand jobs bypass the scheduler (immediate zero-delay completion
  // event) in both models; mixing them into a contended stream must not
  // disturb either model's accounting.
  ScenarioConfig cfg;
  cfg.cores = 2;
  Rng rng(23);
  std::vector<Arrival> arrivals;
  SimTime t = 0;
  for (int i = 0; i < 600; i++) {
    t += static_cast<SimDuration>(rng.NextExp(6000.0) + 0.5);
    const bool zero = rng.NextBounded(4) == 0;
    arrivals.push_back(Arrival{t, zero ? 0 : static_cast<SimDuration>(rng.NextExp(20000.0) + 1.0)});
  }
  ExpectEquivalent(cfg, arrivals, kToleranceNs);
}

TEST(CpuDifferentialTest, OversubscribedQuantumAndPauses) {
  // Dispatch-quantum delays draw from the model's rng at BeginCompute; the
  // draw happens only when the CPU is oversubscribed, so this scenario keeps
  // runnable_jobs far above cores for every arrival (initial burst plus
  // sustained overload, then a drain phase with no arrivals at all). Both
  // models then consume identical rng streams and may be compared
  // job-for-job. GC pauses (their own rng draws, at deterministic times
  // independent of job state) run throughout; total_threads above cores
  // exercises the pause-duration growth term.
  for (uint64_t seed = 1; seed <= 4; seed++) {
    ScenarioConfig cfg;
    cfg.cores = 4;
    cfg.kappa = 0.02;
    cfg.quantum = Micros(1);
    cfg.cpu_seed = seed;
    cfg.pauses = true;
    cfg.total_threads = 64;
    std::vector<Arrival> arrivals;
    // Burst: 64 jobs at t=0 swamp the 4 cores immediately.
    Rng rng(seed * 1553);
    for (int i = 0; i < 64; i++) {
      arrivals.push_back(Arrival{0, static_cast<SimDuration>(rng.NextExp(30000.0) + 1.0)});
    }
    // Overload phase: offered load ~3x capacity keeps the backlog deep.
    SimTime t = 0;
    for (int i = 0; i < 1200; i++) {
      t += static_cast<SimDuration>(rng.NextExp(30000.0 / (3.0 * cfg.cores)) + 0.5);
      arrivals.push_back(Arrival{t, static_cast<SimDuration>(rng.NextExp(30000.0) + 1.0)});
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectEquivalent(cfg, arrivals, kToleranceNs);
  }
}

TEST(CpuDifferentialTest, BusyCoreNanosTracksReference) {
  // Utilization accounting must agree too (it feeds the thread controller's
  // estimator). Sampled at several instants via a probe event.
  ScenarioConfig cfg;
  cfg.cores = 3;
  cfg.kappa = 0.05;
  const std::vector<Arrival> arrivals = PoissonArrivals(31, 800, 4000.0, 20000.0);

  auto run = [&](auto* model_tag) {
    using Model = std::remove_pointer_t<decltype(model_tag)>;
    Simulation sim;
    Model cpu(&sim, cfg.cores, cfg.kappa, cfg.quantum, cfg.cpu_seed);
    for (size_t i = 0; i < arrivals.size(); i++) {
      sim.ScheduleAt(arrivals[i].at, [&sim, &cpu, &arrivals, i] {
        cpu.BeginCompute(arrivals[i].demand, [] {});
      });
    }
    std::vector<double> samples;
    for (int s = 1; s <= 20; s++) {
      sim.ScheduleAt(Millis(s), [&cpu, &samples] { samples.push_back(cpu.busy_core_nanos()); });
    }
    sim.Run();
    return samples;
  };

  const std::vector<double> ref = run(static_cast<sedaref::CpuModel*>(nullptr));
  const std::vector<double> opt = run(static_cast<CpuModel*>(nullptr));
  ASSERT_EQ(ref.size(), opt.size());
  for (size_t i = 0; i < ref.size(); i++) {
    // Busy time integrates core-count step functions; a 1 ns event shift
    // mis-attributes at most cores_ core-ns per completion boundary.
    EXPECT_NEAR(ref[i], opt[i], 1e4) << "sample " << i;
    EXPECT_GT(opt[i], 0.0);
  }
}

}  // namespace
}  // namespace actop
