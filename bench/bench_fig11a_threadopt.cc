// Figure 11(a): latency improvement from model-driven thread allocation on
// the Heartbeat benchmark (one server) at different loads.
//
// Paper (10K / 12.5K / 15K req/s): improvements grow with load, reaching 58%
// median and 68% p99 at 15K. The controller settles on small allocations
// (2 client senders; 3 workers at 10-12.5K, 4 at 15K) versus the default of
// 8 threads per stage.

#include <cstdio>

#include "bench/counter_common.h"
#include "bench/halo_common.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "src/workload/heartbeat.h"

namespace actop {
namespace {

struct RunResult {
  Histogram latency;
  std::vector<int> threads;
};

RunResult Run(double load, bool optimized, const Flags& flags) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  UseSingleServerGcProfile(&cfg.server);
  cfg.enable_thread_optimization = optimized;
  cfg.thread_controller.period = Seconds(1);
  cfg.thread_controller.eta = 100e-6;
  Cluster cluster(&engine, cfg);

  HeartbeatWorkloadConfig w;
  w.num_monitors = static_cast<int>(flags.GetInt("monitors"));
  w.request_rate = load;
  HeartbeatWorkload workload(&cluster, w);
  workload.Start();
  cluster.StartOptimizers();

  sim.RunUntil(Seconds(flags.GetInt("warmup-secs")));
  workload.clients().ResetStats();
  sim.RunUntil(sim.now() + Seconds(flags.GetInt("measure-secs")));

  RunResult result;
  result.latency = workload.clients().latency();
  for (int i = 0; i < Server::kNumStages; i++) {
    result.threads.push_back(cluster.server(0).stage(i).threads());
  }
  return result;
}

std::string AllocString(const std::vector<int>& t) {
  return "r" + std::to_string(t[0]) + "/w" + std::to_string(t[1]) + "/ss" +
         std::to_string(t[2]) + "/cs" + std::to_string(t[3]);
}

int Main(int argc, char** argv) {
  Flags flags;
  flags.DefineInt("monitors", 4000, "monitor actors");
  flags.DefineDouble("load1", 10000.0, "low load (paper: 10000)");
  flags.DefineDouble("load2", 12500.0, "mid load (paper: 12500)");
  flags.DefineDouble("load3", 15000.0, "high load (paper: 15000)");
  flags.DefineInt("warmup-secs", 8, "controller settle time");
  flags.DefineInt("measure-secs", 25, "measurement window");
  flags.DefineInt("seed", 23, "random seed");
  flags.Parse(argc, argv);

  std::printf("== Figure 11(a): model-driven thread allocation on Heartbeat ==\n");
  std::printf("paper reference: up to 58%% median / 68%% p99 improvement at the top load; "
              "allocation shrinks to a few threads per stage\n\n");

  Table t({"load (req/s)", "median impr", "p95 impr", "p99 impr", "default med(ms)",
           "optimized med(ms)", "chosen allocation"});
  for (double load : {flags.GetDouble("load1"), flags.GetDouble("load2"),
                      flags.GetDouble("load3")}) {
    const RunResult base = Run(load, false, flags);
    const RunResult opt = Run(load, true, flags);
    t.AddRow({FormatDouble(load, 0),
              FormatDouble(ImprovementPercent(static_cast<double>(base.latency.p50()),
                                              static_cast<double>(opt.latency.p50())),
                           1) +
                  "%",
              FormatDouble(ImprovementPercent(static_cast<double>(base.latency.p95()),
                                              static_cast<double>(opt.latency.p95())),
                           1) +
                  "%",
              FormatDouble(ImprovementPercent(static_cast<double>(base.latency.p99()),
                                              static_cast<double>(opt.latency.p99())),
                           1) +
                  "%",
              FormatMillis(base.latency.p50()), FormatMillis(opt.latency.p50()),
              AllocString(opt.threads)});
  }
  t.Print();
  return 0;
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) { return actop::Main(argc, argv); }
