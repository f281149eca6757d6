// Shared scaffolding of the six gated benches (bench_engine,
// bench_partition, bench_arena, bench_cluster, bench_parallel,
// bench_halo_scale): the command line, the --compare reference, the JSON
// document, the per-scenario --gate check and the exit code. Each bench
// keeps its scenarios, the fields of its scenario lines and its in-binary
// floors.
//
// Command line (src/common/flags.h; a bad flag or value exits 2):
//   --json=FILE  --compare=FILE  --gate  --threshold=0.10  --scale=1.0
//
// Output is line-oriented JSON: header fields, then one scenario object per
// line in "scenarios", then any top-level fields the bench adds.
// scripts/perf_gate.sh and LookupRef read it with plain text search, so a
// scenario object must stay on one line. See EXPERIMENTS.md ("Engine
// microbenchmark & perf gate").
//
// --compare adds "speedup_vs_ref" (events_per_sec over the reference's) to
// every scenario line. A reference written by another bench is refused
// (exit 2). With --gate the exit code is 1 when a scenario's speedup is
// below 1 - threshold, when a scenario has no reference entry, or when the
// bench reported a failed floor (GateFailure).

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/flags.h"

namespace actop {

// Monotonic wall clock in nanoseconds.
uint64_t NowNs();

// Peak resident set size (VmHWM) in bytes; 0 when unavailable (non-Linux).
uint64_t PeakRssBytes();

// `"key": <number>` from the scenario line whose "name" is exactly `name`.
// False when no line has that name or that line has no `key`.
bool LookupRef(const std::string& text, const std::string& name, const std::string& key,
               double* value);

// Top-level `"key": <number>` from the header (the text before "scenarios").
bool LookupHeader(const std::string& text, const std::string& key, double* value);

// The fields of one JSON line, each appended as `, "key": value`.
class JsonFields {
 public:
  template <std::integral T>
  JsonFields& Int(const std::string& key, T value) {
    return Raw(key, std::to_string(value));
  }
  // `value` printed with the printf format `fmt`, e.g. "%.3f".
  JsonFields& Num(const std::string& key, const char* fmt, double value);
  // `value` is JSON text, e.g. "true" or "\"name\"".
  JsonFields& Raw(const std::string& key, const std::string& value);

  const std::string& str() const { return text_; }

 private:
  std::string text_;
};

class BenchHarness {
 public:
  // `bench` is the JSON "bench" name, e.g. "engine". Defines the shared
  // flags on `flags` (which may carry the bench's own), parses argv, and
  // reads the --compare reference; exits 2 when it is unreadable or was
  // written by another bench.
  BenchHarness(std::string bench, int argc, char** argv, Flags flags = {});

  const Flags& flags() const { return flags_; }
  double scale() const { return scale_; }
  bool gate() const { return gate_; }
  // The --compare reference; empty without --compare.
  const std::string& ref_text() const { return ref_text_; }

  // Records std::thread::hardware_concurrency() as the header's "threads"
  // and refuses (exit 2) a reference recorded at another count; returns it.
  unsigned RecordHostThreads();

  // Prints "bench_<name>: reference <path> <message>" and exits 2.
  [[noreturn]] void RefuseReference(const char* fmt, ...) const
      __attribute__((format(printf, 2, 3)));

  // Appends the line {"name": name<fields>[, "speedup_vs_ref": x]} and
  // compares `events_per_sec` with the reference's entry for `name`.
  // Returns the speedup, or nullopt without a reference entry.
  std::optional<double> AddScenario(const std::string& name, double events_per_sec,
                                    const JsonFields& fields);

  // Appends a top-level `"key": value` after "scenarios"; `value` is JSON.
  void AddField(const std::string& key, const std::string& value);
  // The same for a number printed with the printf format `fmt`.
  void AddField(const std::string& key, const char* fmt, double value);

  // Records a failed in-binary floor; it fails the run under --gate.
  void GateFailure(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  // Writes the document to stdout and --json, reports the failed gate
  // conditions, and returns the exit code: 1 when --gate is set and any
  // condition failed, 2 when --json cannot be written, else 0.
  int Finish();

 private:
  std::string bench_;
  Flags flags_;
  std::string json_path_;
  std::string compare_path_;
  bool gate_ = false;
  double threshold_ = 0.0;
  double scale_ = 1.0;
  std::string ref_text_;
  std::optional<unsigned> threads_;
  std::vector<std::string> scenarios_;
  std::vector<std::string> fields_;
  int regressions_ = 0;
  int missing_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace actop

#endif  // BENCH_HARNESS_H_
