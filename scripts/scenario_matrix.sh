#!/usr/bin/env bash
# Scenario fleet: runs every open-loop scenario (src/load/) and collects the
# JSON SLO reports under scenario_reports/.
#
# Each scenario runs in its own scenario_runner process — the binary's
# counting allocator records allocs/event over the measure window, and
# per-process runs keep one scenario's warm pools out of another's figure.
# Reports are byte-identical for a fixed (scenario, scale, seed), so diffing
# two scenario_reports/ trees is a meaningful regression check.
#
# Usage:
#   scripts/scenario_matrix.sh                   # full scale (1.0): the
#                                                # million-user flash crowd
#                                                # and friends; minutes of
#                                                # wall time, SLO-gated
#   SCALE=0.02 scripts/scenario_matrix.sh        # smoke matrix (what tier-1
#                                                # CI runs); seconds
#   SEED=7 scripts/scenario_matrix.sh            # different traffic seed
#   CHAOS=1 scripts/scenario_matrix.sh           # inject faults; SLO bounds
#                                                # relax to invariants-only
#   SCENARIOS="flash_crowd hot_key" scripts/scenario_matrix.sh
#   THREADS=4 scripts/scenario_matrix.sh         # parallel engine (4 shards);
#                                                # deterministic per thread
#                                                # count, reports land in
#                                                # *.threads4.json
#
# Exit status is non-zero if any scenario fails its SLO (latency/timeout/
# goodput bounds at the configured scale, plus zero invariant violations
# always). The same runs exist as ctest entries: smoke ones in tier-1
# (`ctest -L scenario`), full-scale ones behind the perf configuration
# (`ctest -C perf -L scenario`).
#
# These reports are NOT perf baselines: scripts/perf_gate.sh refuses a
# scenario report offered as one (schema marker actop-scenario-report).

set -euo pipefail

cd "$(dirname "$0")/.."

SCALE="${SCALE:-1.0}"
SEED="${SEED:-1}"
CHAOS="${CHAOS:-0}"
THREADS="${THREADS:-1}"
BUILD_DIR="${BUILD_DIR:-build-release}"
OUT_DIR="${OUT_DIR:-scenario_reports}"
SCENARIOS="${SCENARIOS:-diurnal_chat flash_crowd hot_key viral_social reconnect_storm halo_launch halo_hyperscale}"

cmake --preset release >/dev/null
cmake --build "${BUILD_DIR}" --target scenario_runner -j >/dev/null

runner="${BUILD_DIR}/bench/scenario_runner"
if [[ ! -x "${runner}" ]]; then
  echo "scenario_matrix: ERROR: ${runner} missing or not executable" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

chaos_args=()
suffix=""
if [[ "${CHAOS}" == "1" ]]; then
  chaos_args=(--chaos)
  suffix=".chaos"
fi
if [[ "${THREADS}" != "1" ]]; then
  suffix="${suffix}.threads${THREADS}"
fi

status=0
for scenario in ${SCENARIOS}; do
  out="${OUT_DIR}/${scenario}.scale${SCALE}.seed${SEED}${suffix}.json"
  echo "scenario_matrix: ${scenario} (scale=${SCALE} seed=${SEED} chaos=${CHAOS} threads=${THREADS})"
  if ! "${runner}" --scenario="${scenario}" --scale="${SCALE}" --seed="${SEED}" \
       --threads="${THREADS}" \
       "${chaos_args[@]+"${chaos_args[@]}"}" --check --json="${out}"; then
    echo "scenario_matrix: ${scenario} FAILED its SLO (report: ${out})" >&2
    status=1
  fi
done

echo "scenario_matrix: reports in ${OUT_DIR}/"
exit "${status}"
