#!/usr/bin/env bash
# Prints how many lines under src/ the working tree adds and deletes
# against <base>, and the net change, first over all lines and then over
# the lines that are not comments (a line whose first non-blank
# characters are //). Blank lines count as non-comment lines. New files
# count once they are tracked (git add -N is enough).
# Usage: scripts/src_lines.sh <base>   (e.g. scripts/src_lines.sh HEAD~1)
set -euo pipefail
if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base>" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
git rev-parse --verify --quiet "$1^{commit}" > /dev/null ||
  { echo "$0: no commit named $1" >&2; exit 2; }

git diff --no-color --unified=0 "$1" -- src/ | awk '
  /^(\+\+\+|---) / { next }
  /^[+-]/ {
    sign = substr($0, 1, 1)
    comment = substr($0, 2) ~ /^[ \t]*\/\//
    if (sign == "+") { added++; if (!comment) code_added++ }
    else { deleted++; if (!comment) code_deleted++ }
  }
  END {
    printf "all lines:         +%d -%d net %+d\n", added, deleted,
           added - deleted
    printf "non-comment lines: +%d -%d net %+d\n", code_added, code_deleted,
           code_added - code_deleted
  }'
