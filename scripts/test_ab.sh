#!/usr/bin/env bash
# Self-test for the alternating-pair A/B script (scripts/ab.sh): a tier-1
# ctest entry, so it runs stub benchmark commands, not perfbench.
#
# The stubs (through the AB_PARENT_CMD / AB_CHANGE_CMD hooks) print a log
# line and then a perfbench-shaped JSON result whose wall_ns_per_req is
# 1000 + 10 * (seed mod 5) on the parent side (interquartile range 20 over
# seeds 101..110) and that minus $STUB_GAIN on the change side, or plus 1 on
# the seeds listed in $STUB_WORSE. Every other end-to-end metric reads the
# same on both sides. Cases:
#   1. a gain of 100 in every pair resolves (10/10 wins, gap > IQR), and the
#      untouched metrics read identical and do not resolve;
#   2. a gain of 5 in every pair does not resolve: 10/10 wins but the gap is
#      inside the parent's IQR;
#   3. a gain of 100 in 8 of 10 pairs does not resolve;
#   4. pairs alternate which side runs first, and each pair runs one seed on
#      both sides;
#   5. a failing run and an aborted run (empty result line) exit 1;
#   6. bad usage exits 2.
# When shellcheck is available both scripts must also lint clean.

set -euo pipefail

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

cat > "${tmp}/stub" <<'EOF'
#!/usr/bin/env bash
side="$1"
shift
seed=""
workload=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    *) shift ;;
  esac
done
echo "${side} ${workload} ${seed}" >> "${STUB_CALLS}"
echo "stub benchmark log line"
if [[ "${side}" == change && -n "${STUB_CHANGE_EXIT:-}" ]]; then
  exit "${STUB_CHANGE_EXIT}"
fi
if [[ "${side}" == change && -n "${STUB_CHANGE_ABORT:-}" ]]; then
  echo ""
  exit 0
fi
wall=$((1000 + 10 * (seed % 5)))
if [[ "${side}" == change ]]; then
  if [[ ",${STUB_WORSE:-}," == *",${seed},"* ]]; then
    wall=$((wall + 1))
  else
    wall=$((wall - STUB_GAIN))
  fi
fi
printf '{"correct": true, "attempted": 100, "failed": 0, "metrics": {'
printf '"wall_ns_per_req": {"value": %d, "unit": "ns"}, ' "${wall}"
printf '"setup_s": {"value": 1.5, "unit": "s"}, '
printf '"peak_rss_mb": {"value": 40, "unit": "MiB"}, '
printf '"sim_p50_ms": {"value": 4.25, "unit": "ms"}, '
printf '"sim_p99_ms": {"value": 9.5, "unit": "ms"}, '
printf '"sim_p999_ms": {"value": 12, "unit": "ms"}}}\n'
EOF
chmod +x "${tmp}/stub"

run_ab() {
  : > "${tmp}/calls.txt"
  STUB_CALLS="${tmp}/calls.txt" AB_PARENT_CMD="${tmp}/stub parent" \
    AB_CHANGE_CMD="${tmp}/stub change" \
    scripts/ab.sh -n 10 -w stub_load -o "${tmp}/out" "$@" parent-rev change-rev \
    > "${tmp}/table.txt" 2> "${tmp}/stderr.txt"
}

fail() {
  echo "test_ab: FAIL: $*" >&2
  echo "--- ab stdout ---" >&2
  cat "${tmp}/table.txt" >&2 || true
  echo "--- ab stderr ---" >&2
  cat "${tmp}/stderr.txt" >&2 || true
  exit 1
}

row() { grep "^| stub_load | $1 |" "${tmp}/table.txt" || true; }

# Case 1: a clear gain resolves; untouched metrics are identical.
STUB_GAIN=100 run_ab || fail "ab exited non-zero on a clean run"
[[ "$(row wall_ns_per_req)" == \
  "| stub_load | wall_ns_per_req | 1010 / 1020 / 1030 | 910 / 920 / 930 | -9.8% | 10/10 | no | resolves |" ]] \
  || fail "clear gain row: $(row wall_ns_per_req)"
[[ "$(row sim_p50_ms)" == *"| 0/10 | yes | does not resolve |" ]] \
  || fail "identical metric row: $(row sim_p50_ms)"
[[ "$(grep -c '^| stub_load |' "${tmp}/table.txt")" -eq 6 ]] \
  || fail "expected one row per BENCHMARK.json end-to-end metric"

# Case 2: every pair wins, but by less than the parent's IQR.
STUB_GAIN=5 run_ab || fail "ab exited non-zero on a clean run"
[[ "$(row wall_ns_per_req)" == *"| 10/10 | no | does not resolve |" ]] \
  || fail "gain inside IQR row: $(row wall_ns_per_req)"

# Case 3: 8 wins in 10 pairs is short of 9 in 10.
STUB_GAIN=100 STUB_WORSE=101,102 run_ab || fail "ab exited non-zero on a clean run"
[[ "$(row wall_ns_per_req)" == *"| 8/10 | no | does not resolve |" ]] \
  || fail "8/10 row: $(row wall_ns_per_req)"

# Case 4: alternation. Pair 0 runs parent first, pair 1 change first, and
# each pair runs one seed on both sides.
expected="parent stub_load 101
change stub_load 101
change stub_load 102
parent stub_load 102
parent stub_load 103
change stub_load 103"
[[ "$(head -n 6 "${tmp}/calls.txt")" == "${expected}" ]] \
  || fail "run order: $(head -n 6 "${tmp}/calls.txt" | tr '\n' ';')"
[[ "$(wc -l < "${tmp}/calls.txt")" -eq 20 ]] || fail "expected 20 runs for 10 pairs"

# Case 5: a failing run and an aborted run both fail the A/B.
if STUB_GAIN=100 STUB_CHANGE_EXIT=1 run_ab; then
  fail "ab exited 0 when a run failed"
fi
if STUB_GAIN=100 STUB_CHANGE_ABORT=1 run_ab; then
  fail "ab exited 0 when a run printed no result"
fi
grep -q "holds no JSON result" "${tmp}/stderr.txt" || fail "aborted run not reported"

# Case 6: bad usage.
for args in "-n 0 a b" "-w Bad! a b" "-s 1,,2 a b" "only-one-rev"; do
  set +e
  # shellcheck disable=SC2086
  scripts/ab.sh ${args} > /dev/null 2>&1
  code=$?
  set -e
  [[ "${code}" -eq 2 ]] || fail "'ab.sh ${args}' exited ${code}, expected 2"
done

if command -v shellcheck >/dev/null 2>&1; then
  shellcheck scripts/ab.sh scripts/test_ab.sh
else
  echo "test_ab: shellcheck not installed; lint skipped" >&2
fi

echo "test_ab: OK"
