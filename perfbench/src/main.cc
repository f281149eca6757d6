// actop benchmark runner: one workload, one seed, one run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--shards K] [--trace-out FILE] [--out FILE]
//
// Timed mode (--trace 0) runs set-up, a measure window and a drain three
// times, each on a seed derived from --seed, and prints the end-to-end
// metrics: host metrics as medians, simulated metrics over the pooled
// latency samples. Traced mode (--trace 1) runs the workload twice at
// the same seed, untraced and traced, checks that both simulated the same
// thing, and prints the per-layer metrics of the traced run; a sharded
// workload also runs once on the serial engine for its speedup. The last
// line of standard output is always the JSON result; the exit code is
// non-zero if any correctness check failed.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/alloc_count.h"
#include "perfbench/src/host_speed.h"
#include "perfbench/src/probe.h"
#include "perfbench/src/workloads.h"
#include "src/common/histogram.h"
#include "src/testing/invariants.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t WallNs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Repetitions of set-up + measure window per timed run, each on its own seed
// derived from the run's seed. Host metrics are medians over them; simulated
// metrics pool their latency samples.
constexpr int kReps = 3;

uint64_t RepSeed(uint64_t seed, int rep) {
  return seed + static_cast<uint64_t>(rep) * 0x9e3779b97f4a7c15ULL;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int shards = 0;  // 0: the workload's recorded K
  std::string trace_out;
  std::string out;
};

// --- spans ------------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  int64_t wall_start_ns = 0;
  int64_t wall_end_ns = 0;
  SimTime sim_end = 0;
  Counters at_end;  // layer counters at the closing boundary
};

// Records a span around every call the benchmark makes into the program.
// Disabled, it records nothing and reads no counters.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int Begin(const char* name, int parent = -1) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.parent = parent;
    span.wall_start_ns = WallNs(origin_, Clock::now());
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  // Closes span `id`, snapshotting the layer counters when an instance is
  // given (the shards are parked: End is only called between RunUntil calls).
  void End(int id, Instance* instance) {
    if (!enabled_) {
      return;
    }
    Span& span = spans_[static_cast<size_t>(id)];
    span.wall_end_ns = WallNs(origin_, Clock::now());
    if (instance != nullptr) {
      span.sim_end = instance->engine().now();
      span.at_end = Snapshot(*instance);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- one run ------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct RunResult {
  double setup_s = 0.0;
  // HostSpeed factors: mean over set-up, mean over the measure window, and
  // the sample taken right after each measure-window RunUntil step.
  double setup_speed = 1.0;
  double measure_speed = 1.0;
  int64_t measure_wall_ns = 0;
  std::vector<int64_t> step_wall_ns;
  std::vector<double> step_speed;
  Counters start;    // measure window opens (after the client stats reset)
  Counters end;      // measure window closes
  Counters drained;  // after the drain
  actop::Histogram latency;
  std::vector<int> measure_spans;  // ids of the measure-window RunUntil spans
  std::vector<Check> checks;
};

// Runs the engine to `until` in RunUntil steps of the workload's step size,
// sampling the host's speed after each step. With `r` given, records each
// step's wall time (and span id) there.
void RunSteps(Instance& inst, SimTime until, const char* span_name, int parent, Tracer& tracer,
              HostSpeed& speed, RunResult* r) {
  const SimDuration step = inst.spec().step;
  while (inst.engine().now() < until) {
    const SimTime next = std::min(until, inst.engine().now() + step);
    const int id = tracer.Begin(span_name, parent);
    const Clock::time_point t0 = Clock::now();
    inst.engine().RunUntil(next);
    const int64_t wall = WallNs(t0, Clock::now());
    tracer.End(id, &inst);
    const double factor = speed.Sample();
    if (r != nullptr) {
      r->step_wall_ns.push_back(wall);
      r->step_speed.push_back(factor);
      if (id >= 0) {
        r->measure_spans.push_back(id);
      }
    }
  }
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size() && i < 3; i++) {
    out += (i == 0 ? "" : "; ") + items[i];
  }
  if (items.size() > 3) {
    out += "; ... (" + std::to_string(items.size()) + " total)";
  }
  return out;
}

// One run: set-up (construction, start, warm-up), measure window, drain and
// correctness checks.
RunResult RunWorkload(const WorkloadSpec& spec, uint64_t seed, int shards, SimDuration measure,
                      Tracer& tracer) {
  RunResult r;
  HostSpeed setup_speed;
  HostSpeed measure_speed;
  const Clock::time_point t0 = Clock::now();
  const int setup = tracer.Begin("setup");
  int span = tracer.Begin("construct", setup);
  auto inst = std::make_unique<Instance>(spec, seed, shards, measure);
  tracer.End(span, inst.get());
  span = tracer.Begin("workload.start", setup);
  inst->StartWorkload();
  tracer.End(span, inst.get());
  span = tracer.Begin("cluster.start_optimizers", setup);
  inst->StartOptimizers();
  tracer.End(span, inst.get());
  span = tracer.Begin("driver.start", setup);
  inst->StartDriver();
  tracer.End(span, inst.get());
  RunSteps(*inst, inst->measure_start(), "warmup.run_until", setup, tracer, setup_speed, nullptr);
  tracer.End(setup, inst.get());
  r.setup_s = static_cast<double>(WallNs(t0, Clock::now())) / 1e9;
  r.setup_speed = setup_speed.Factor();

  inst->pool().ResetStats();
  r.start = Snapshot(*inst);
  const int measure_span = tracer.Begin("measure");
  RunSteps(*inst, inst->measure_end(), "measure.run_until", measure_span, tracer, measure_speed,
           &r);
  for (int64_t ns : r.step_wall_ns) {
    r.measure_wall_ns += ns;
  }
  r.measure_speed = measure_speed.Factor();
  tracer.End(measure_span, inst.get());
  r.end = Snapshot(*inst);
  r.latency = inst->pool().latency();

  actop::InvariantChecker checker(&inst->cluster());
  const std::vector<std::string> instant = checker.CheckInstant();
  r.checks.push_back({"invariants_after_measure", instant.empty(), Join(instant)});

  span = tracer.Begin("drain");
  inst->StopTraffic();
  inst->engine().RunUntil(inst->drain_end());
  tracer.End(span, inst.get());
  r.drained = Snapshot(*inst);

  // Arrivals, matchmaking and the partition agents stopped before the
  // drain, so every workload reaches quiescence.
  const std::vector<std::string> quiescent = checker.CheckQuiescent();
  r.checks.push_back({"invariants_quiescent", quiescent.empty(), Join(quiescent)});
  // Requests outstanding when the stats reset resolve inside the window, so
  // they are added to the issued side.
  const uint64_t resolved = r.drained.completed + r.drained.timeouts;
  const uint64_t expected = r.drained.issued + r.start.outstanding;
  r.checks.push_back({"request_accounting", resolved == expected && r.drained.outstanding == 0,
                      "completed+timed_out=" + std::to_string(resolved) +
                          " issued+carried_in=" + std::to_string(expected) +
                          " outstanding=" + std::to_string(r.drained.outstanding)});
  const uint64_t completed = r.end.completed - r.start.completed;
  r.checks.push_back({"measure_window_nonempty", completed > 0 && r.latency.count() > 0,
                      "completed=" + std::to_string(completed)});
  return r;
}

// --- metrics --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Quantile of a latency histogram in ms, interpolated linearly inside the
// histogram bucket that holds it (exact below 1024 ns; 32 log sub-buckets
// per power of two above). Bucket midpoints alone would move in ~3% steps
// and read the same on many seeds.
double QuantileMs(const actop::Histogram& h, double q) {
  if (h.count() == 0) {
    return 0.0;
  }
  const int64_t v = h.ValueAtQuantile(q);
  int64_t lo = v;
  int64_t width = 1;
  if (v >= 1024) {
    const int msb = 63 - std::countl_zero(static_cast<uint64_t>(v));
    width = int64_t{1} << (msb - 5);
    lo = v & ~(width - 1);
  }
  const double below = h.CdfAt(lo - 1);
  const double through = h.CdfAt(lo);
  const double rank = (q * static_cast<double>(h.count() - 1) + 1.0) /
                      static_cast<double>(h.count());
  const double frac = std::clamp(Div(rank - below, through - below), 0.0, 1.0);
  return (static_cast<double>(lo) + frac * static_cast<double>(width)) / 1e6;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double CompletedInWindow(const RunResult& r) {
  return static_cast<double>(r.end.completed - r.start.completed);
}

// Host times are reported at the reference host speed: each measure step's
// wall time scaled by the HostSpeed sample taken right after it.
double StepNs(const RunResult& r, size_t i) {
  return static_cast<double>(r.step_wall_ns[i]) * r.step_speed[i];
}

double WallNsPerReq(const RunResult& r) {
  double wall = 0.0;
  for (size_t i = 0; i < r.step_wall_ns.size(); i++) {
    wall += StepNs(r, i);
  }
  return Div(wall, CompletedInWindow(r));
}

// The simulated end-to-end metrics, over the latency samples and requests of
// one or more runs: exact functions of the seed and the shard count.
std::vector<Metric> SimMetrics(const std::vector<RunResult>& runs) {
  actop::Histogram latency;
  double timeouts = 0.0;
  double issued = 0.0;
  for (const RunResult& r : runs) {
    latency.Merge(r.latency);
    timeouts += static_cast<double>(r.drained.timeouts);
    issued += static_cast<double>(r.drained.issued);
  }
  return {
      {"sim_p50_ms", QuantileMs(latency, 0.50), "ms"},
      {"sim_p99_ms", QuantileMs(latency, 0.99), "ms"},
      {"sim_p999_ms", QuantileMs(latency, 0.999), "ms"},
      {"failed_frac", Div(timeouts, issued), "ratio"},
  };
}

// True if two runs simulated exactly the same thing: same simulated
// metrics, engine events, network messages and completed requests.
bool SameSimulation(const RunResult& a, const RunResult& b, std::string* detail) {
  bool same = true;
  auto expect = [&](const std::string& what, double x, double y) {
    if (x != y) {
      same = false;
      *detail += what + " " + Num(x) + " vs " + Num(y) + "; ";
    }
  };
  const std::vector<Metric> ma = SimMetrics({a});
  const std::vector<Metric> mb = SimMetrics({b});
  for (size_t i = 0; i < ma.size(); i++) {
    expect(ma[i].name, ma[i].value, mb[i].value);
  }
  expect("sim.events", static_cast<double>(a.end.events - a.start.events),
         static_cast<double>(b.end.events - b.start.events));
  expect("net.msgs", static_cast<double>(a.end.net_msgs - a.start.net_msgs),
         static_cast<double>(b.end.net_msgs - b.start.net_msgs));
  expect("completed", CompletedInWindow(a), CompletedInWindow(b));
  return same;
}

// Measure-window wall time per completed request over the repetitions. The
// window's wall time is assembled step by step from the median, over the
// repetitions, of that RunUntil step's wall time: interference from other
// processes rarely hits the same step of two repetitions, while work that
// belongs to a step (a reconnect storm) counts in full.
double MedianWallNsPerReq(const std::vector<RunResult>& reps) {
  double wall = 0.0;
  double completed = 0.0;
  for (size_t i = 0; i < reps.front().step_wall_ns.size(); i++) {
    std::vector<double> step;
    for (const RunResult& r : reps) {
      step.push_back(StepNs(r, i));
    }
    wall += Median(step);
  }
  for (const RunResult& r : reps) {
    completed += CompletedInWindow(r) / static_cast<double>(reps.size());
  }
  return Div(wall, completed);
}

std::vector<Metric> EndToEndMetrics(const std::vector<RunResult>& reps) {
  std::vector<double> setup;
  for (const RunResult& r : reps) {
    setup.push_back(r.setup_s * r.setup_speed);
  }
  std::vector<Metric> m = {
      {"wall_ns_per_req", MedianWallNsPerReq(reps), "ns"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  for (Metric& s : SimMetrics(reps)) {
    m.push_back(std::move(s));
  }
  return m;
}

std::vector<Metric> LayerMetrics(const RunResult& r, const std::vector<Span>& spans,
                                 const WorkloadSpec& spec, double speedup_vs_serial,
                                 double overhead_ns_per_req) {
  const Counters& a = r.start;
  const Counters& b = r.end;
  const double reqs = CompletedInWindow(r);
  const double events = static_cast<double>(b.events - a.events);
  auto d = [](uint64_t x1, uint64_t x0) { return static_cast<double>(x1 - x0); };

  // Maxima and RunUntil durations over the measure window's step spans.
  uint64_t pending_max = 0;
  uint64_t outstanding_max = 0;
  std::array<uint64_t, kStages> queue_max{};
  std::array<double, kStages> wait_ns{};
  std::array<double, kStages> wait_n{};
  std::vector<double> run_until_ms;
  const Counters* prev = &a;
  for (int id : r.measure_spans) {
    const Span& span = spans[static_cast<size_t>(id)];
    const Counters& c = span.at_end;
    pending_max = std::max(pending_max, c.pending);
    outstanding_max = std::max(outstanding_max, c.outstanding);
    run_until_ms.push_back(static_cast<double>(span.wall_end_ns - span.wall_start_ns) / 1e6);
    for (int i = 0; i < kStages; i++) {
      const StageCounters& now = c.stages[static_cast<size_t>(i)];
      const StageCounters& was = prev->stages[static_cast<size_t>(i)];
      queue_max[static_cast<size_t>(i)] = std::max(queue_max[static_cast<size_t>(i)],
                                                   now.queue_len_max);
      // A shrinking window means the thread controller restarted it since the
      // last boundary: only the part after the restart is visible.
      const bool restarted = now.window_completions < was.window_completions;
      wait_ns[static_cast<size_t>(i)] +=
          restarted ? now.window_queue_wait_ns : now.window_queue_wait_ns - was.window_queue_wait_ns;
      wait_n[static_cast<size_t>(i)] += static_cast<double>(
          restarted ? now.window_completions : now.window_completions - was.window_completions);
    }
    prev = &c;
  }

  double shard_max = 0.0;
  double shard_sum = 0.0;
  for (size_t k = 0; k < b.shard_events.size(); k++) {
    const double e = d(b.shard_events[k], a.shard_events[k]);
    shard_max = std::max(shard_max, e);
    shard_sum += e;
  }
  const double shard_mean = shard_sum / static_cast<double>(b.shard_events.size());

  std::vector<Metric> m = {
      {"sim.events", events, "count"},
      {"sim.events_per_req", Div(events, reqs), "count"},
      {"sim.ns_per_event", Div(static_cast<double>(r.measure_wall_ns), events), "ns"},
      {"sim.pending_max", static_cast<double>(pending_max), "count"},
      {"sim.shard_events_max_over_mean", Div(shard_max, shard_mean), "ratio"},
      {"sim.run_until_ms_p50", Median(run_until_ms), "ms"},
      {"sim.run_until_ms_max",
       run_until_ms.empty() ? 0.0 : *std::max_element(run_until_ms.begin(), run_until_ms.end()),
       "ms"},
      {"sim.speedup_vs_serial", speedup_vs_serial, "ratio"},
      {"net.msgs_per_req", Div(d(b.net_msgs, a.net_msgs), reqs), "count"},
      {"net.bytes_per_req", Div(d(b.net_bytes, a.net_bytes), reqs), "B"},
      {"net.dropped", d(b.net_dropped, a.net_dropped), "count"},
  };
  const double servers = static_cast<double>(spec.servers);
  for (int i = 0; i < kStages; i++) {
    const auto s = static_cast<size_t>(i);
    const std::string p = std::string("seda.") + kStageNames[s] + ".";
    m.push_back({p + "completions_per_req",
                 Div(d(b.stages[s].completions, a.stages[s].completions), reqs), "count"});
    m.push_back({p + "queue_wait_ms", Div(wait_ns[s], wait_n[s]) / 1e6, "ms"});
    m.push_back({p + "queue_len_max", static_cast<double>(queue_max[s]), "count"});
    m.push_back({p + "rejections", d(b.stages[s].rejections, a.stages[s].rejections), "count"});
    m.push_back({p + "threads", static_cast<double>(b.stages[s].threads) / servers, "count"});
  }
  const double busy_ns = b.cpu_busy_ns - a.cpu_busy_ns;
  const double window_ns = static_cast<double>(b.sim_now - a.sim_now);
  m.push_back({"seda.cpu_util", Div(busy_ns, static_cast<double>(b.cores_total) * window_ns),
               "ratio"});
  m.push_back({"seda.cpu_ms_per_req", Div(busy_ns / 1e6, reqs), "ms"});

  const double remote = d(b.remote_app_msgs, a.remote_app_msgs);
  const double app = remote + d(b.local_app_msgs, a.local_app_msgs);
  m.push_back({"runtime.remote_frac", Div(remote, app), "ratio"});
  m.push_back({"runtime.app_msgs_per_req", Div(app, reqs), "count"});
  m.push_back({"runtime.activations_per_req",
               Div(d(b.activations_started, a.activations_started), reqs), "count"});
  m.push_back({"runtime.migrations", d(b.migrations, a.migrations), "count"});
  m.push_back({"runtime.outstanding_max", static_cast<double>(outstanding_max), "count"});

  const double accepted = d(b.exchanges_accepted, a.exchanges_accepted);
  const double rejected = d(b.exchanges_rejected, a.exchanges_rejected);
  m.push_back({"core.partition_rounds", d(b.partition_rounds, a.partition_rounds), "count"});
  m.push_back({"core.exchanges_accepted", accepted, "count"});
  m.push_back({"core.exchanges_rejected", rejected, "count"});
  m.push_back({"core.exchange_accept_ratio", Div(accepted, accepted + rejected), "ratio"});
  m.push_back({"core.threads_total",
               spec.thread_optimization ? static_cast<double>(b.threads_total) : 0.0, "count"});

  const double hits = d(b.cache_hits, a.cache_hits);
  const double misses = d(b.cache_misses, a.cache_misses);
  m.push_back({"actor.cache_hit_ratio", Div(hits, hits + misses), "ratio"});
  m.push_back({"actor.cache_misses_per_req", Div(misses, reqs), "count"});
  m.push_back({"actor.directory_entries", static_cast<double>(b.directory_entries), "count"});
  m.push_back({"actor.churned", d(b.churned, a.churned), "count"});

  m.push_back({"load.arrivals", d(b.arrivals, a.arrivals), "count"});
  m.push_back({"load.burst_arrivals", d(b.burst_arrivals, a.burst_arrivals), "count"});
  m.push_back({"workload.games_started", d(b.games_started, a.games_started), "count"});

  m.push_back({"host.allocs_per_event", Div(d(b.heap.allocs, a.heap.allocs), events), "count"});
  m.push_back({"host.bytes_per_actor",
               Div(static_cast<double>(a.heap.live_bytes), static_cast<double>(a.live_activations)),
               "B"});

  m.push_back({"host.speed_factor", r.measure_speed, "ratio"});
  m.push_back({"trace.overhead_ns_per_req", overhead_ns_per_req, "ns"});
  m.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
  return m;
}

// --- output -----------------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); i++) {
    out += (i == 0 ? "" : ", ") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool AssertionsEnabled() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

std::string ProvenanceJson(const Options& opt, int shards, SimDuration measure) {
  std::ostringstream o;
  o << "{\"workload\": " << Quote(opt.workload) << ", \"seed\": " << opt.seed
    << ", \"seconds\": " << opt.seconds << ", \"measure_sim_s\": " << Num(actop::ToSeconds(measure))
    << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"shards\": " << shards
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": " << Quote(CompilerName())
    << ", \"assertions\": " << (AssertionsEnabled() ? "true" : "false") << "}";
  return o.str();
}

std::string CountersJson(const Counters& c) {
  std::ostringstream o;
  o << "{\"sim_ns\": " << c.sim_now << ", \"events\": " << c.events << ", \"pending\": "
    << c.pending << ", \"net_msgs\": " << c.net_msgs << ", \"net_bytes\": " << c.net_bytes
    << ", \"cpu_busy_ns\": " << Num(c.cpu_busy_ns) << ", \"remote_app_msgs\": "
    << c.remote_app_msgs << ", \"local_app_msgs\": " << c.local_app_msgs
    << ", \"activations_started\": " << c.activations_started
    << ", \"migrations\": " << c.migrations << ", \"issued\": " << c.issued
    << ", \"completed\": " << c.completed << ", \"timeouts\": " << c.timeouts
    << ", \"outstanding\": " << c.outstanding << ", \"partition_rounds\": " << c.partition_rounds
    << ", \"exchanges_accepted\": " << c.exchanges_accepted
    << ", \"threads_total\": " << c.threads_total << ", \"cache_hits\": " << c.cache_hits
    << ", \"cache_misses\": " << c.cache_misses << ", \"directory_entries\": "
    << c.directory_entries << ", \"churned\": " << c.churned << ", \"arrivals\": " << c.arrivals
    << ", \"allocs\": " << c.heap.allocs << ", \"live_bytes\": " << c.heap.live_bytes;
  o << ", \"stage_completions\": [";
  for (int i = 0; i < kStages; i++) {
    o << (i == 0 ? "" : ", ") << c.stages[static_cast<size_t>(i)].completions;
  }
  o << "]}";
  return o.str();
}

bool WriteTrace(const std::string& path, const std::string& provenance,
                const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  f << "{\"provenance\": " << provenance << ",\n \"spans\": [\n";
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    f << "  {\"id\": " << i << ", \"name\": " << Quote(s.name) << ", \"parent\": " << s.parent
      << ", \"wall_start_ns\": " << s.wall_start_ns << ", \"wall_end_ns\": " << s.wall_end_ns
      << ", \"sim_end_ns\": " << s.sim_end << ", \"counters\": " << CountersJson(s.at_end) << "}"
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// --- CLI --------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opt, std::string* error) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + arg;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      opt->trace = value == "1";
    } else if (arg == "--shards") {
      opt->shards = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (arg == "--trace-out") {
      opt->trace_out = value;
    } else if (arg == "--out") {
      opt->out = value;
    } else {
      *error = "unknown argument " + arg;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + arg + ": " + value;
      return false;
    }
  }
  if (opt->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (opt->seconds < 1 || opt->seconds > 600) {
    *error = "--seconds must be in [1, 600]";
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!ParseArgs(argc, argv, &opt, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  const int shards = opt.shards > 0 ? opt.shards : spec->shards;
  if (shards > spec->servers) {
    std::fprintf(stderr, "perfbench: --shards must not exceed %d servers\n", spec->servers);
    return 2;
  }
  // `--seconds` of measuring is split over the repetitions; each measure
  // window is a whole number of RunUntil steps.
  const auto steps = static_cast<int64_t>(std::llround(
      opt.seconds * spec->measure_per_wall_s / kReps * 1e9 / static_cast<double>(spec->step)));
  const SimDuration measure = std::max<int64_t>(1, steps) * spec->step;
  const std::string provenance = ProvenanceJson(opt, shards, measure);
  std::printf("provenance %s\n", provenance.c_str());

  // Every run of this process, for the correctness checks and the
  // attempted/failed counts.
  std::vector<RunResult> runs;
  std::vector<Check> checks;
  std::vector<Metric> metrics;
  Tracer off(false);
  if (!opt.trace) {
    for (int rep = 0; rep < kReps; rep++) {
      runs.push_back(RunWorkload(*spec, RepSeed(opt.seed, rep), shards, measure, off));
      const RunResult& r = runs.back();
      std::printf("repetition %d: seed %llu  raw setup_s %.4f, wall_ns_per_req %.1f  "
                  "host speed %.4f (set-up), %.4f (measure)\n",
                  rep, static_cast<unsigned long long>(RepSeed(opt.seed, rep)), r.setup_s,
                  Div(static_cast<double>(r.measure_wall_ns), CompletedInWindow(r)),
                  r.setup_speed, r.measure_speed);
    }
    metrics = EndToEndMetrics(runs);
    PrintTable("end-to-end (host = simulator time at reference host speed, sim = modelled time):",
               metrics);
    // failed_frac is carried by the result's failed/attempted counts.
    metrics.erase(std::remove_if(metrics.begin(), metrics.end(),
                                 [](const Metric& m) { return m.name == "failed_frac"; }),
                  metrics.end());
  } else {
    Tracer tracer(true);
    runs.push_back(RunWorkload(*spec, opt.seed, shards, measure, off));
    runs.push_back(RunWorkload(*spec, opt.seed, shards, measure, tracer));
    if (shards > 1) {
      runs.push_back(RunWorkload(*spec, opt.seed, 1, measure, off));
    }
    const RunResult& untraced = runs[0];
    const RunResult& traced = runs[1];
    const double speedup = shards > 1 ? Div(WallNsPerReq(runs[2]), WallNsPerReq(untraced)) : 1.0;
    metrics = LayerMetrics(traced, tracer.spans(), *spec, speedup,
                           WallNsPerReq(traced) - WallNsPerReq(untraced));
    // Observation must not change the simulation.
    std::string detail;
    checks.push_back(
        {"traced_equals_untraced", SameSimulation(untraced, traced, &detail), detail});

    PrintTable("per-layer (traced run):", metrics);
    if (spec->thread_optimization) {
      std::printf("note: the thread controller restarts each stage's measurement window every "
                  "control period, so seda.*.queue_wait_ms covers only the visible part of "
                  "each window\n");
    }
    const std::string path =
        opt.trace_out.empty() ? opt.workload + ".trace.json" : opt.trace_out;
    checks.push_back({"trace_written", WriteTrace(path, provenance, tracer.spans()), path});
  }
  uint64_t attempted = 0;
  uint64_t timeouts = 0;
  for (const RunResult& r : runs) {
    checks.insert(checks.end(), r.checks.begin(), r.checks.end());
    attempted += r.drained.issued;
    timeouts += r.drained.timeouts;
  }

  bool correct = true;
  uint64_t failed_checks = 0;
  for (const Check& c : checks) {
    std::printf("check %-28s %s %s\n", c.name.c_str(), c.ok ? "ok  " : "FAIL", c.detail.c_str());
    if (!c.ok) {
      correct = false;
      failed_checks++;
    }
  }
  attempted += checks.size();
  const uint64_t failed = timeouts + failed_checks;
  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + MetricsJson(metrics) + "}";
  if (!opt.out.empty()) {
    std::ofstream f(opt.out);
    f << "{\"provenance\": " << provenance << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
