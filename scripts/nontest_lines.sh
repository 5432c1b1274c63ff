#!/usr/bin/env bash
# Non-test line count under crates/: for each crates/**/*.rs file, the lines
# above its first `#[cfg(test)]` (the whole file if it has none), summed.
# This is the size figure ROADMAP asks every PR to report, parent → this.
#
#   bash scripts/nontest_lines.sh          # count the work tree
#   bash scripts/nontest_lines.sh <rev>    # count a commit (e.g. HEAD~1)
set -euo pipefail
cd "$(dirname "$0")/.."

root=.
if [ $# -gt 0 ]; then
  root=$(mktemp -d)
  trap 'rm -rf "$root"' EXIT
  git archive "$1" crates | tar -x -C "$root"
fi

# One awk per file keeps the count right however xargs batches the list.
find "$root/crates" -name '*.rs' -print0 |
  xargs -0 -n 1 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' |
  awk '{ total += $1 } END { print total + 0 }'
