#!/usr/bin/env bash
# Alternating-pair A/B of the repo benchmark (perfbench) between two commits.
#
#   scripts/ab.sh [-n PAIRS] [-w WORKLOADS] [-s SEEDS] [-o OUT_DIR]
#                 PARENT_REV CHANGE_REV
#
#   -n PAIRS      pairs per workload (default 10)
#   -w WORKLOADS  comma-separated perfbench workloads (default halo_actop)
#   -s SEEDS      comma-separated seeds; pair i runs SEEDS[i mod count] on
#                 both sides (default 101..100+PAIRS)
#   -o OUT_DIR    worktrees, builds and result files (default .ab under the
#                 repository root, ignored by git)
#
# Every run lasts BENCHMARK.json's run_seconds, and the metrics compared
# are its end_to_end list, each with its better = lower/higher direction.
#
# The script checks out PARENT_REV and CHANGE_REV (any git revisions) into
# two `git worktree`s under OUT_DIR, and each side's perfbench is built from
# its own checkout by perfbench/run.py (CARGO_TARGET_DIR=OUT_DIR/build-SIDE,
# kept between invocations). Pair i then runs both sides on one seed, parent
# first on even i and change first on odd i, so drift in host speed lands on
# both sides alike. Every result line is kept in OUT_DIR/results.
#
# For each workload and metric it prints a markdown table row: parent and
# change q1 / median / q3 (linear interpolation), the median change in
# percent, the change's wins (a pair where the change reads better; ties
# count for neither side), whether every pair read the identical value on
# both sides, and the verdict. A gain "resolves" when the change wins at
# least 9 in 10 pairs and its median is better than the parent's by more
# than the parent's interquartile range; otherwise it "does not resolve".
#
# Exit status: 0 when every run produced a correct result, 1 when a build,
# a run or a correctness check failed (the run's output is kept in
# OUT_DIR/results), 2 on bad usage.
#
# Test hook (scripts/test_ab.sh): when AB_PARENT_CMD and AB_CHANGE_CMD are
# set, each names a command run in place of `python3 perfbench/run.py` for
# its side, with the same arguments; no worktree is made and nothing is
# built.

set -euo pipefail

usage() {
  sed -n '2,12p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

root="$(cd "$(dirname "$0")/.." && pwd)"
pairs=10
workloads="halo_actop"
seeds=""
out="${root}/.ab"

while getopts "n:w:s:o:h" opt; do
  case "${opt}" in
    n) pairs="${OPTARG}" ;;
    w) workloads="${OPTARG}" ;;
    s) seeds="${OPTARG}" ;;
    o) out="${OPTARG}" ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[[ $# -eq 2 ]] || usage
parent_rev="$1"
change_rev="$2"
[[ "${pairs}" =~ ^[1-9][0-9]*$ ]] || { echo "ab: -n wants a positive integer" >&2; exit 2; }
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "${root}/BENCHMARK.json")"
[[ "${workloads}" =~ ^[a-z0-9_]+(,[a-z0-9_]+)*$ ]] || { echo "ab: bad -w list" >&2; exit 2; }
if [[ -z "${seeds}" ]]; then
  seeds="$(seq -s, 101 $((100 + pairs)))"
fi
[[ "${seeds}" =~ ^[0-9]+(,[0-9]+)*$ ]] || { echo "ab: bad -s list" >&2; exit 2; }
IFS=, read -r -a seed_list <<< "${seeds}"
IFS=, read -r -a workload_list <<< "${workloads}"

mkdir -p "${out}/results"
out="$(cd "${out}" && pwd)"

declare -A side_cmd side_dir
if [[ -n "${AB_PARENT_CMD:-}" && -n "${AB_CHANGE_CMD:-}" ]]; then
  side_cmd[parent]="${AB_PARENT_CMD}"
  side_cmd[change]="${AB_CHANGE_CMD}"
  side_dir[parent]="${root}"
  side_dir[change]="${root}"
else
  cleanup() {
    for side in parent change; do
      if [[ -d "${out}/${side}" ]]; then
        git -C "${root}" worktree remove --force "${out}/${side}" >/dev/null 2>&1 || true
      fi
    done
    git -C "${root}" worktree prune
  }
  trap cleanup EXIT
  for side in parent change; do
    rev="${parent_rev}"
    [[ "${side}" == change ]] && rev="${change_rev}"
    if [[ -d "${out}/${side}" ]]; then
      git -C "${root}" worktree remove --force "${out}/${side}" >/dev/null 2>&1 || rm -rf "${out:?}/${side}"
    fi
    git -C "${root}" worktree add --detach "${out}/${side}" "${rev}" >&2
    side_cmd[${side}]="python3 perfbench/run.py"
    side_dir[${side}]="${out}/${side}"
  done
fi

# Runs one side once; the last stdout line (the JSON result) goes to $4.
run_side() {
  local side="$1" workload="$2" seed="$3" dest="$4" cmd
  read -r -a cmd <<< "${side_cmd[${side}]}"
  echo "ab: ${side} ${workload} seed ${seed}" >&2
  if ! (cd "${side_dir[${side}]}" &&
        CARGO_TARGET_DIR="${out}/build-${side}" \
          "${cmd[@]}" --workload "${workload}" --seed "${seed}" --seconds "${seconds}" \
          --trace 0 > "${dest}.log" 2>&1); then
    echo "ab: ${side} ${workload} seed ${seed} failed; see ${dest}.log" >&2
    return 1
  fi
  tail -n 1 "${dest}.log" > "${dest}"
}

for workload in "${workload_list[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    seed="${seed_list[$((i % ${#seed_list[@]}))]}"
    order=(parent change)
    ((i % 2 == 1)) && order=(change parent)
    for side in "${order[@]}"; do
      run_side "${side}" "${workload}" "${seed}" "${out}/results/${workload}-${i}-${side}.json"
    done
  done
done

python3 - "${out}/results" "${root}/BENCHMARK.json" "${pairs}" "${workload_list[@]}" <<'EOF'
import json
import statistics
import sys

results, bench, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
with open(bench) as f:
    better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


def load(workload, i, side):
    path = "%s/%s-%d-%s.json" % (results, workload, i, side)
    with open(path) as f:
        line = f.read().strip()
    try:
        res = json.loads(line)
    except ValueError:
        sys.exit("ab: %s holds no JSON result (did the run abort?)" % path)
    if not res.get("correct", False) or res.get("failed", 0) != 0:
        sys.exit("ab: %s failed a check or a request (failed=%s)" % (path, res.get("failed")))
    return res["metrics"]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    return "%.6g" % x


print("| workload | metric | parent q1 / median / q3 | change q1 / median / q3 | median "
      "| wins | identical | verdict |")
print("|---|---|---|---|---|---|---|---|")
for workload in workloads:
    runs = [(load(workload, i, "parent"), load(workload, i, "change")) for i in range(pairs)]
    for name, direction in better.items():
        if name not in runs[0][0]:
            sys.exit("ab: metric %s missing from the %s results" % (name, workload))
        lower = direction == "lower"
        par = [p[name]["value"] for p, _ in runs]
        chg = [c[name]["value"] for _, c in runs]
        wins = sum(1 for a, b in zip(par, chg) if (b < a if lower else b > a))
        identical = all(a == b for a, b in zip(par, chg))
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        gap = (pmed - cmed) if lower else (cmed - pmed)
        resolves = wins * 10 >= 9 * pairs and gap > pq3 - pq1
        pct = 100.0 * (cmed - pmed) / pmed if pmed else 0.0
        print("| %s | %s | %s / %s / %s | %s / %s / %s | %+.1f%% | %d/%d | %s | %s |" % (
            workload, name, fmt(pq1), fmt(pmed), fmt(pq3), fmt(cq1), fmt(cmed), fmt(cq3),
            pct, wins, pairs, "yes" if identical else "no",
            "resolves" if resolves else "does not resolve"))
EOF
