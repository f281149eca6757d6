// Scenario fleet runner: executes one open-loop scenario (src/load/) and
// emits its canonical JSON SLO report.
//
// One scenario per process, on purpose: the binary links the counting
// allocator (bench/alloc_counter.h), and per-process runs keep the
// allocs/event figure for each scenario free of another scenario's warm
// pools. The allocs/event number is recorded in the report for
// trend-watching but is NOT gated here — the perf gates own allocation
// ratchets (see EXPERIMENTS.md).
//
// Usage:
//   scenario_runner --scenario=NAME [--scale=1.0] [--seed=1] [--chaos]
//                   [--threads=1] [--json=FILE] [--check] [--list]
//
// --check exits non-zero when the report fails its SLO (or records any
// invariant violation) — this is what the ctest scenario entries run.
// Scenario reports are not perf baselines; scripts/perf_gate.sh refuses
// them by schema marker.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench/alloc_counter.h"
#include "src/common/flags.h"
#include "src/load/report.h"
#include "src/load/scenarios.h"

namespace actop {
namespace {

int Run(int argc, char** argv) {
  Flags flags;
  flags.DefineString("scenario", "", "scenario name (see --list)");
  flags.DefineDouble("scale", 1.0, "population & rate multiplier (1.0 = full)");
  flags.DefineInt("seed", 1, "scenario seed (same seed => byte-identical report)");
  flags.DefineBool("chaos", false, "inject faults during the measure window");
  flags.DefineInt("threads", 1, "engine shards (1 = serial; >1 = parallel windows)");
  flags.DefineString("json", "", "write the report to FILE (default: stdout)");
  flags.DefineBool("check", false, "exit non-zero if the SLO fails");
  flags.DefineBool("list", false, "list scenarios and exit");
  flags.Parse(argc, argv);

  if (flags.GetBool("list")) {
    for (const ScenarioDef& def : ScenarioRegistry()) {
      std::printf("%-16s %s\n", def.name, def.summary);
    }
    return 0;
  }

  const std::string name = flags.GetString("scenario");
  const ScenarioDef* def = FindScenario(name);
  if (def == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n", name.c_str());
    return 2;
  }

  ScenarioOptions options;
  options.scale = flags.GetDouble("scale");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.chaos = flags.GetBool("chaos");
  options.threads = static_cast<int>(flags.GetInt("threads"));
  options.alloc_counter = AllocCount;

  const ScenarioReport report = def->run(options);
  const std::string json = ScenarioReportToJson(report);

  const std::string& path = flags.GetString("json");
  if (path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    out << json;
  }

  if (!report.slo_failures.empty()) {
    for (const std::string& failure : report.slo_failures) {
      std::fprintf(stderr, "SLO FAIL [%s]: %s\n", report.scenario.c_str(), failure.c_str());
    }
    if (flags.GetBool("check")) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) { return actop::Run(argc, argv); }
