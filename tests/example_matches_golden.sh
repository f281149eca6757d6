#!/usr/bin/env bash
# An example must exit 0 and print exactly its checked-in golden output.
# The examples are deterministic simulations, so any difference in stdout
# means the runtime's behaviour changed. To accept an intended change,
# rerun the example and copy its stdout over the golden.
#
# Usage: example_matches_golden.sh <example binary> <golden file>

set -uo pipefail

bin="$1"
golden="$2"

if [[ ! -f "${golden}" ]]; then
  echo "missing golden ${golden}"
  exit 1
fi
out="$(mktemp)"
trap 'rm -f "${out}"' EXIT

"${bin}" >"${out}"
rc=$?
if [[ ${rc} -ne 0 ]]; then
  echo "${bin} exited with status ${rc}"
  exit 1
fi
if ! diff -u "${golden}" "${out}"; then
  echo "stdout of ${bin} differs from ${golden}"
  exit 1
fi
