#!/usr/bin/env bash
# Negative/positive test for the perf-gate driver (scripts/perf_gate.sh):
# a tier-1 ctest entry, so it must run in milliseconds with no real bench.
#
# It drives the gate against a stub bench binary via the PERF_GATE_* hooks:
#   1. regression case — the stub writes canned JSON whose events/sec is far
#      below the canned baseline and exits 1 (as a gating bench does). The
#      gate must exit 1 AND emit the structured failure line
#      "perf_gate: FAIL bench=... scenario=... measured=... floor=...".
#   2. healthy case — the stub writes JSON matching the baseline and exits
#      0. The gate must exit 0 and emit no FAIL line.
#   3. missing-baseline case — without ALLOW_MISSING_BASELINE the gate must
#      refuse to run the bench (exit 1).
#   4. halo_scale pinning — the halo-scale bench is pinned to one attempt
#      regardless of ATTEMPTS (a ~20-minute run is too expensive to retry);
#      a failing stub bench_halo_scale must be invoked exactly once and the
#      gate must still emit the structured FAIL line for it.
#   5. host threads — a baseline whose "threads" differs from the host's
#      online CPU count must be refused before the bench runs. When taskset
#      is present and the host has more than one CPU, a baseline recorded
#      at the online count and run under `taskset -c 0` must reach the
#      bench: the gate counts CPUs as the binaries do, not as nproc does.
# When shellcheck is available both scripts must also lint clean.

set -euo pipefail

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

mkdir -p "${tmp}/build/bench" "${tmp}/baselines" "${tmp}/out"

cat > "${tmp}/baselines/BENCH_stub.baseline.json" <<'EOF'
{
  "bench": "stub",
  "scenarios": [
    {"name": "fast_path", "events": 100, "events_per_sec": 1000000, "ns_per_event": 1000.00},
    {"name": "slow_path", "events": 100, "events_per_sec": 500000, "ns_per_event": 2000.00}
  ]
}
EOF

# The stub honors the gate's calling convention (--json=FILE plus ignored
# flags), writes whatever JSON $STUB_JSON points at, logs each call to
# $STUB_CALLS when set, and exits $STUB_EXIT.
cat > "${tmp}/build/bench/bench_stub" <<'EOF'
#!/usr/bin/env bash
if [[ -n "${STUB_CALLS:-}" ]]; then
  echo run >> "${STUB_CALLS}"
fi
out=""
for arg in "$@"; do
  case "${arg}" in
    --json=*) out="${arg#--json=}" ;;
  esac
done
[[ -n "${out}" ]] && cp "${STUB_JSON}" "${out}"
exit "${STUB_EXIT}"
EOF
chmod +x "${tmp}/build/bench/bench_stub"

run_gate_with_stub() {
  local json="$1" stub_exit="$2"
  STUB_JSON="${json}" STUB_EXIT="${stub_exit}" \
  PERF_GATE_BENCHES="stub" PERF_GATE_NO_BUILD=1 ATTEMPTS=1 \
  BUILD_DIR="${tmp}/build" OUT_DIR="${tmp}/out" BASELINE_DIR="${tmp}/baselines" \
    scripts/perf_gate.sh 2> "${tmp}/stderr.txt"
}

fail() {
  echo "test_perf_gate: FAIL: $*" >&2
  echo "--- gate stderr ---" >&2
  cat "${tmp}/stderr.txt" >&2 || true
  exit 1
}

# Case 1: regressed scenario, gating bench exits 1 -> gate fails with a
# structured line naming the scenario, the measured value, and the floor.
cat > "${tmp}/regressed.json" <<'EOF'
{
  "bench": "stub",
  "scenarios": [
    {"name": "fast_path", "events": 100, "events_per_sec": 400000, "ns_per_event": 2500.00},
    {"name": "slow_path", "events": 100, "events_per_sec": 490000, "ns_per_event": 2040.00}
  ]
}
EOF
if run_gate_with_stub "${tmp}/regressed.json" 1; then
  fail "gate exited 0 on a regressed bench"
fi
grep -q 'perf_gate: FAIL bench=stub scenario=fast_path metric=events_per_sec measured=400000 floor=900000' \
  "${tmp}/stderr.txt" || fail "missing structured failure line for fast_path"
if grep -q 'scenario=slow_path' "${tmp}/stderr.txt"; then
  fail "slow_path (within threshold) reported as regressed"
fi

# Case 2: healthy numbers, bench exits 0 -> gate passes, no FAIL lines.
if ! run_gate_with_stub "${tmp}/baselines/BENCH_stub.baseline.json" 0; then
  fail "gate exited non-zero on a healthy bench"
fi
if grep -q 'perf_gate: FAIL' "${tmp}/stderr.txt"; then
  fail "healthy run emitted a FAIL line"
fi

# Case 3: a missing baseline must be refused, not silently recorded.
rm "${tmp}/baselines/BENCH_stub.baseline.json"
if run_gate_with_stub "${tmp}/regressed.json" 0; then
  fail "gate exited 0 with no baseline and no ALLOW_MISSING_BASELINE"
fi
grep -q 'no baseline' "${tmp}/stderr.txt" || fail "missing-baseline error not reported"

# Case 4: halo_scale is pinned to a single attempt even when ATTEMPTS asks
# for retries, and its failures still carry the structured line. The stub
# logs each invocation so the attempt count is observable.
cat > "${tmp}/baselines/BENCH_halo_scale.baseline.json" <<'EOF'
{
  "bench": "halo_scale",
  "scenarios": [
    {"name": "halo_scale", "events": 8000, "events_per_sec": 5.5, "bytes_per_actor": 2886.9}
  ]
}
EOF
cat > "${tmp}/halo_regressed.json" <<'EOF'
{
  "bench": "halo_scale",
  "scenarios": [
    {"name": "halo_scale", "events": 8000, "events_per_sec": 2.0, "bytes_per_actor": 2886.9}
  ]
}
EOF
cp "${tmp}/build/bench/bench_stub" "${tmp}/build/bench/bench_halo_scale"
: > "${tmp}/halo_calls.txt"
if STUB_JSON="${tmp}/halo_regressed.json" STUB_CALLS="${tmp}/halo_calls.txt" STUB_EXIT=1 \
   PERF_GATE_BENCHES="halo_scale" PERF_GATE_NO_BUILD=1 ATTEMPTS=3 \
   BUILD_DIR="${tmp}/build" OUT_DIR="${tmp}/out" BASELINE_DIR="${tmp}/baselines" \
     scripts/perf_gate.sh 2> "${tmp}/stderr.txt"; then
  fail "gate exited 0 on a failing halo_scale bench"
fi
calls="$(wc -l < "${tmp}/halo_calls.txt")"
[[ "${calls}" -eq 1 ]] || fail "halo_scale ran ${calls} attempts; pinned count is 1"
grep -q 'perf_gate: FAIL bench=halo_scale scenario=halo_scale metric=events_per_sec' \
  "${tmp}/stderr.txt" || fail "missing structured failure line for halo_scale"

# Case 5: the "threads" pre-check counts online CPUs, as the binaries'
# std::thread::hardware_concurrency() does.
host_threads="$(getconf _NPROCESSORS_ONLN)"
write_threads_baseline() {
  cat > "${tmp}/baselines/BENCH_threads.baseline.json" <<EOF
{
  "bench": "threads",
  "threads": $1,
  "scenarios": [
    {"name": "point", "events": 100, "events_per_sec": 1000}
  ]
}
EOF
}
run_threads_gate() {
  STUB_JSON="${tmp}/baselines/BENCH_threads.baseline.json" STUB_CALLS="${tmp}/threads_calls.txt" \
  STUB_EXIT=0 PERF_GATE_BENCHES="threads" PERF_GATE_NO_BUILD=1 ATTEMPTS=1 \
  BUILD_DIR="${tmp}/build" OUT_DIR="${tmp}/out" BASELINE_DIR="${tmp}/baselines" \
    "$@" scripts/perf_gate.sh 2> "${tmp}/stderr.txt"
}
cp "${tmp}/build/bench/bench_stub" "${tmp}/build/bench/bench_threads"
write_threads_baseline "$((host_threads + 1))"
: > "${tmp}/threads_calls.txt"
if run_threads_gate; then
  fail "gate exited 0 on a baseline recorded at another thread count"
fi
[[ ! -s "${tmp}/threads_calls.txt" ]] || fail "bench ran despite a threads mismatch"
grep -q "recorded with threads=$((host_threads + 1))" "${tmp}/stderr.txt" \
  || fail "threads mismatch not reported"
if command -v taskset >/dev/null 2>&1 && [[ "${host_threads}" -gt 1 ]]; then
  write_threads_baseline "${host_threads}"
  run_threads_gate taskset -c 0 || fail "gate under taskset -c 0 refused threads=${host_threads}"
  calls="$(wc -l < "${tmp}/threads_calls.txt")"
  [[ "${calls}" -eq 1 ]] || fail "bench under taskset -c 0 ran ${calls} times; expected 1"
else
  echo "test_perf_gate: taskset or a second CPU missing; pinned case skipped" >&2
fi

if command -v shellcheck >/dev/null 2>&1; then
  shellcheck scripts/perf_gate.sh scripts/test_perf_gate.sh
else
  echo "test_perf_gate: shellcheck not installed; lint skipped" >&2
fi

echo "test_perf_gate: OK"
