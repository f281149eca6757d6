#!/usr/bin/env bash
# Perf-regression gate for the engine/messaging, partitioning,
# repartitioning-arena, cluster/CPU-scheduler, parallel-core and
# halo-scale hot paths.
#
# Builds bench_engine, bench_partition, bench_arena, bench_cluster,
# bench_parallel and bench_halo_scale in Release mode, runs all six, writes
# BENCH_<name>.json at the repo root, and — when a checked-in baseline
# exists — fails (exit 1) if any scenario's events/sec regressed more than
# THRESHOLD (default 10%) against the corresponding file in
# bench/baselines/. bench_partition and bench_cluster additionally
# self-gate their in-binary geomean speedups vs the retained seed
# implementations (1.5x floors), bench_arena self-gates its 5x geomean vs
# the map-based testbed plus zero steady-state allocations, bench_cluster
# fails if an optimized CPU scenario allocates in steady state,
# bench_parallel self-gates the 3x-at-8-shards scaling floor on hosts with
# >= 8 hardware threads, and bench_halo_scale self-gates the bytes/actor
# build ceiling at the 1000-server / 10M-player point.
#
# bench_halo_scale is the outlier in cost and calling convention: the full
# run takes ~20 minutes, its baseline is population-specific (the binary
# refuses a --scale that differs from the baseline's recorded scale instead
# of comparing incomparable populations), so it is pinned to a single
# attempt, and SCALE=... quick runs must either exclude it
# (PERF_GATE_BENCHES) or bring a baseline recorded at that scale.
#
# On a failed gate the script emits one structured line per regressed
# scenario to stderr:
#   perf_gate: FAIL bench=<name> scenario=<scenario> metric=events_per_sec \
#     measured=<value> floor=<baseline * (1 - THRESHOLD)>
# Self-gate failures (geomean / allocation floors) are reported by the bench
# binaries themselves on stderr with the measured value and the floor.
#
# Every bench binary parses its flags, loads its baseline and decides its
# --gate verdict through one shared harness (bench/harness.h). A binary
# refuses (exit 2) a baseline written by another bench, and under --gate
# fails a scenario that has no entry in the baseline.
#
# Baselines that record a "threads" header (bench_parallel and
# bench_halo_scale do) are only comparable between hosts with the same
# hardware parallelism; the gate refuses a mismatched one up front instead
# of reporting a bogus regression/improvement. It counts online CPUs
# (getconf _NPROCESSORS_ONLN), as the binaries'
# std::thread::hardware_concurrency() does; nproc would count only the CPUs
# this process may run on, which differs under CPU pinning (taskset).
#
# Usage:
#   scripts/perf_gate.sh                 # gate against the checked-in baselines
#   THRESHOLD=0.05 scripts/perf_gate.sh  # stricter gate
#   SCALE=0.25 scripts/perf_gate.sh      # quicker run (smaller workloads);
#                                        # throughput ratios stay comparable
#   ATTEMPTS=1 scripts/perf_gate.sh      # no retry on a failed gate (default 3;
#                                        # retries absorb shared-builder noise).
#                                        # Each bench pins its own attempt
#                                        # count: the single-threaded benches
#                                        # follow ATTEMPTS, while the parallel
#                                        # scaling bench is pinned to 2 — its
#                                        # multi-minute runs make a third
#                                        # retry more expensive than useful,
#                                        # and its speedup ratios are
#                                        # self-normalizing against host noise
#
# The same comparisons run in ctest under the "perf" configuration:
#   ctest --preset perf        (or: ctest -C perf -L perf from a build dir)
# Tier-1 `ctest` never runs them: wall-clock throughput is machine-dependent,
# so the gate is opt-in for perf work and CI perf jobs only.
#
# Hooks for driving the gate logic itself under test
# (scripts/test_perf_gate.sh):
#   PERF_GATE_BENCHES="arena"     run only the named benches
#   PERF_GATE_NO_BUILD=1          skip the cmake configure/build step
#   OUT_DIR=/tmp/x                where BENCH_<name>.json is written (default .)
#   BASELINE_DIR=/tmp/y           where baselines are read from
#                                 (default bench/baselines)

set -euo pipefail

cd "$(dirname "$0")/.."

THRESHOLD="${THRESHOLD:-0.10}"
SCALE="${SCALE:-1.0}"
BUILD_DIR="${BUILD_DIR:-build-release}"
OUT_DIR="${OUT_DIR:-.}"
BASELINE_DIR="${BASELINE_DIR:-bench/baselines}"
PERF_GATE_BENCHES="${PERF_GATE_BENCHES:-engine partition arena cluster parallel halo_scale}"
# Wall-clock throughput on shared builders dips 20-30% under transient host
# load. A real regression reproduces on every attempt; a noise dip does not,
# so retry a failing bench up to ATTEMPTS times before declaring a regression.
ATTEMPTS="${ATTEMPTS:-3}"

if [[ "${PERF_GATE_NO_BUILD:-0}" != "1" ]]; then
  cmake --preset release >/dev/null
  targets=()
  for bench in ${PERF_GATE_BENCHES}; do
    targets+=(--target "bench_${bench}")
  done
  cmake --build "${BUILD_DIR}" "${targets[@]}" -j >/dev/null
fi

status=0

# One structured line per scenario whose events/sec fell below the baseline
# floor, so CI logs carry the regressed scenario, the measured value, and
# the floor without anyone re-running the bench by hand.
report_failures() {
  local bench="$1" out="$2" baseline="$3"
  [[ -f "${out}" && -f "${baseline}" ]] || return 0
  awk -v bench="${bench}" -v thr="${THRESHOLD}" '
    function num(line, key,    s) {
      s = line
      if (!sub(".*\"" key "\": *", "", s)) return ""
      sub("[,}].*", "", s)
      return s + 0
    }
    function scen(line,    s) {
      s = line
      sub(".*\"name\": *\"", "", s)
      sub("\".*", "", s)
      return s
    }
    FNR == NR {
      if ($0 ~ /"name":/) base[scen($0)] = num($0, "events_per_sec")
      next
    }
    $0 ~ /"name":/ {
      n = scen($0)
      if (n in base && base[n] > 0) {
        floor = base[n] * (1 - thr)
        measured = num($0, "events_per_sec")
        if (measured < floor)
          printf "perf_gate: FAIL bench=%s scenario=%s metric=events_per_sec measured=%.0f floor=%.0f\n", \
                 bench, n, measured, floor
      }
    }
  ' "${baseline}" "${out}" >&2
}
run_gate() {
  local bench="$1"
  # Per-bench pinned attempt count; defaults to the global ATTEMPTS.
  local attempts="${2:-${ATTEMPTS}}"
  local baseline="${BASELINE_DIR}/BENCH_${bench}.baseline.json"
  local out="${OUT_DIR}/BENCH_${bench}.json"
  local binary="${BUILD_DIR}/bench/bench_${bench}"
  # Fail loudly instead of "passing" vacuously: a missing binary means the
  # build above silently skipped the target, and a missing baseline means
  # the gate would record numbers without comparing them. Recording without
  # a baseline is legitimate only when intentionally re-baselining, so it
  # must be requested explicitly.
  if [[ ! -x "${binary}" ]]; then
    echo "perf_gate: ERROR: bench binary ${binary} missing or not executable" >&2
    status=1
    return
  fi
  local args=(--json="${out}" --scale="${SCALE}")
  if [[ -f "${baseline}" ]]; then
    if [[ ! -s "${baseline}" ]]; then
      echo "perf_gate: ERROR: baseline ${baseline} exists but is empty" >&2
      status=1
      return
    fi
    # Scenario SLO reports (scripts/scenario_matrix.sh) are JSON too, but
    # they measure simulated latency under a traffic shape — not wall-clock
    # bench throughput — so one offered as a bench baseline must be refused,
    # not silently compared field-by-missing-field.
    if grep -q 'actop-scenario-report' "${baseline}"; then
      echo "perf_gate: ERROR: ${baseline} is a scenario SLO report" \
           "(actop-scenario-report schema), not a bench baseline" >&2
      echo "perf_gate: scenario reports come from scripts/scenario_matrix.sh" \
           "and are not comparable with bench output" >&2
      status=1
      return
    fi
    # Baselines with a "threads" header (the scaling bench records one) are
    # host-parallelism-specific: a curve recorded on an 8-way box is not a
    # valid reference for a 1-vCPU builder or vice versa. Reject the
    # mismatch here with a clear message (the bench itself double-checks).
    if grep -q '"threads":' "${baseline}"; then
      local baseline_threads host_threads
      baseline_threads="$(grep -o '"threads": *[0-9]*' "${baseline}" | head -1 | grep -o '[0-9]*')"
      host_threads="$(getconf _NPROCESSORS_ONLN)"
      if [[ "${baseline_threads}" != "${host_threads}" ]]; then
        echo "perf_gate: ERROR: ${baseline} was recorded with threads=${baseline_threads}" \
             "but this host has ${host_threads}; scaling baselines are only comparable" \
             "at equal parallelism — re-record it on this host" >&2
        status=1
        return
      fi
    fi
    args+=(--compare="${baseline}" --gate --threshold="${THRESHOLD}")
  elif [[ "${ALLOW_MISSING_BASELINE:-0}" == "1" ]]; then
    echo "perf_gate: no baseline at ${baseline}; recording ${out} without gating" >&2
  else
    echo "perf_gate: ERROR: no baseline at ${baseline}" >&2
    echo "perf_gate: set ALLOW_MISSING_BASELINE=1 to record a new baseline" >&2
    status=1
    return
  fi
  local attempt
  for attempt in $(seq 1 "${attempts}"); do
    if "${binary}" "${args[@]}"; then
      echo "perf_gate: wrote ${out}"
      return
    fi
    if [[ "${attempt}" -lt "${attempts}" ]]; then
      echo "perf_gate: bench_${bench} gate failed (attempt ${attempt}/${attempts}); retrying" >&2
    fi
  done
  echo "perf_gate: bench_${bench} gate failed on all ${attempts} attempts" >&2
  if [[ -f "${baseline}" ]]; then
    report_failures "${bench}" "${out}" "${baseline}"
  fi
  status=1
  echo "perf_gate: wrote ${out}"
}

for bench in ${PERF_GATE_BENCHES}; do
  case "${bench}" in
    # The parallel scaling bench is pinned to 2 attempts (see header).
    parallel) run_gate parallel 2 ;;
    # The halo-scale bench runs ~20 minutes at full scale; one attempt only
    # (its baseline carries enough headroom to absorb builder noise).
    halo_scale) run_gate halo_scale 1 ;;
    *) run_gate "${bench}" ;;
  esac
done
exit "${status}"
