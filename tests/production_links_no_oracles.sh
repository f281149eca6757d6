#!/usr/bin/env bash
# Production code must not reach the test/bench-only oracles (oracles/):
#   1. no file under src/ includes a header from oracles/, and no src/
#      target links actop_oracles;
#   2. a binary built only from production libraries carries none of the
#      oracle or map-planner symbols.
# A missing nm fails the test rather than skipping it.
#
# Usage: production_links_no_oracles.sh <repository root> <production binary>

set -uo pipefail

root="$1"
bin="$2"
status=0

includes="$(grep -rn '#include "oracles/' "${root}/src")"
if [[ -n "${includes}" ]]; then
  echo "src/ includes oracle headers:"
  echo "${includes}"
  status=1
fi
if grep -q 'actop_oracles' "${root}/src/CMakeLists.txt"; then
  echo "a src/ target links actop_oracles"
  status=1
fi

if ! command -v nm >/dev/null; then
  echo "nm not found; cannot inspect ${bin}"
  exit 1
fi
symbols="$(nm -C "${bin}")" || { echo "nm failed on ${bin}"; exit 1; }
# A stripped or empty symbol table would pass the check below vacuously.
if ! grep -q 'actop::Cluster::' <<<"${symbols}"; then
  echo "no actop::Cluster symbols in ${bin}; is it stripped?"
  exit 1
fi
leaked="$(grep -E 'PartitionTestbed|WeightedGraph|BuildPeerPlans|DecideExchange|seedref::|sedaref::|SpaceSavingReference' <<<"${symbols}")"
if [[ -n "${leaked}" ]]; then
  echo "$(wc -l <<<"${leaked}") oracle symbols linked into ${bin}:"
  echo "${leaked}"
  status=1
fi
exit "${status}"
