#!/usr/bin/env bash
# chaos_test must refuse a --chaos_seeds value that is not a whole
# non-negative decimal (exit 2, "bad value for --chaos_seeds") instead of
# reading it as 0 and silently skipping the soak. A well-formed 0 still runs.
#
# Usage: malformed_seeds_test.sh <path to chaos_test>

set -uo pipefail

bin="$1"
filter='--gtest_filter=ChaosSoakTest.*'

for value in abc 10x -3 '' ' 4' 99999999999; do
  out="$("${bin}" "--chaos_seeds=${value}" "${filter}" 2>&1)"
  code=$?
  if [[ ${code} -ne 2 ]]; then
    echo "--chaos_seeds='${value}': exit ${code}, want 2"
    exit 1
  fi
  if ! grep -q 'bad value for --chaos_seeds' <<<"${out}"; then
    echo "--chaos_seeds='${value}': missing error message; got: ${out}"
    exit 1
  fi
done

if ! "${bin}" --chaos_seeds=0 "${filter}" >/dev/null 2>&1; then
  echo "--chaos_seeds=0 was refused"
  exit 1
fi
echo "malformed --chaos_seeds values refused"
