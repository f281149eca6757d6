#!/usr/bin/env bash
# Counts the code lines under src/: non-blank lines of the C++ sources
# (*.h, *.cc) whose first non-space characters are not `//`. Prints one row
# per src/ module (top-level directory) and the total, so a change that aims
# at "same behaviour, less code" can quote the figure before and after.
#
# Usage:
#   scripts/src_lines.sh            # modules and total for this checkout
#   scripts/src_lines.sh DIR        # the same for another checkout's DIR/src

set -euo pipefail

root="${1:-$(dirname "$0")/..}"
src="$root/src"
if [[ ! -d "$src" ]]; then
  echo "src_lines: no src/ under $root" >&2
  exit 1
fi

count() {
  find "$@" -type f \( -name '*.h' -o -name '*.cc' \) -print0 | sort -z |
    xargs -0 -r cat | grep -cv -e '^[[:space:]]*$' -e '^[[:space:]]*//' || true
}

for dir in "$src"/*/; do
  printf '%-10s %6d\n' "$(basename "$dir")" "$(count "$dir")"
done
printf '%-10s %6d\n' total "$(count "$src")"
