#!/usr/bin/env bash
# Paper-artifact witness: every `results/*.txt` is the verbatim stdout of a
# deterministic `namd-bench` binary (DES runs), so rebuilding and rerunning
# each must print the committed bytes.
#
#   scripts/results_check.sh
#
# Builds `namd-bench` in release, runs the ten binaries one at a time
# (~3 min on a 2-vCPU host; `ablation` is the longest) and `diff`s each
# output against its file. Exits non-zero on any difference; regenerate a
# file only when a change means to move the number it holds.
set -euo pipefail
cd "$(dirname "$0")/.."

bins=(table1 table2 table3 table4 table5 table6 fig1_fig2 fig3_fig4 ablation pme_scaling)
cargo build --release --offline -q -p namd-bench --bins
target=${CARGO_TARGET_DIR:-target}/release
work=$(mktemp -d "${TMPDIR:-/tmp}/results_check.XXXXXX")
trap 'rm -rf "$work"' EXIT

status=0
for bin in "${bins[@]}"; do
  "$target/$bin" >"$work/$bin.txt"
  if ! diff "results/$bin.txt" "$work/$bin.txt"; then
    echo "results_check: $bin prints other bytes than results/$bin.txt" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "results_check: ${#bins[@]} binaries print results/*.txt byte for byte"
fi
exit "$status"
