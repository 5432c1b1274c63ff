#!/usr/bin/env bash
# The repo's one benchmark. Run from the root of a checkout:
#
#   benchmark/run.sh [--seed N] [--workload W] [--trace 0|1 | --traced]
#                    [--quick] [--seconds S] [--out DIR]
#   benchmark/run.sh compare A B
#
# Builds the harness (its own workspace under benchmark/, release profile
# copied from the root), then runs each workload in its own process, one at
# a time. Every run checks its outputs, prints every metric by name with
# its unit, writes its result document under --out (default .bench_out),
# and ends its standard output with one JSON line
# {"attempted":…,"correct":…,"failed":…,"metrics":{…}}.
#
# With no --workload every workload runs; with no --trace each runs untraced
# (end-to-end metrics) and then traced (the per-layer ledger). --quick is the
# CI smoke size: every workload untraced, plus one traced run, which alone
# exercises every per-layer metric name and check.
#
# `compare A B` reads two directories of result documents (searched
# recursively, so one sub-directory per run works) and prints one row per
# workload × end-to-end metric; it fails on a regression, on a larger share
# of failed operations, or on state CRCs that differ for the same seed.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
workloads=(md-small-1pe md-small-2pe md-large-2pe serve-mix)

target=${CARGO_TARGET_DIR:-$here/target}
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin=$target/release/namd-benchmark

if [[ ${1:-} == compare ]]; then
    exec "$bin" "$@"
fi

# The host record's two fields the binary cannot see for itself.
BENCH_GIT_REV=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
export BENCH_GIT_REV BENCH_RUSTC

workload=
trace=
quick=0
pass=()
while (($#)); do
    case $1 in
        --workload) workload=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        --traced) trace=1; shift ;;
        --quick) quick=1; pass+=(--quick); shift ;;
        --seed | --seconds | --out) pass+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument '$1' (see the header of $0)" >&2; exit 2 ;;
    esac
done

# One workload in one mode: the contract line is the last line of stdout.
if [[ -n $workload && -n $trace ]]; then
    exec "$bin" --workload "$workload" --trace "$trace" ${pass[@]+"${pass[@]}"}
fi

if [[ -n $workload ]]; then
    workloads=("$workload")
fi
runs=0
incorrect=0
for w in "${workloads[@]}"; do
    for t in ${trace:-0 1}; do
        # The smoke test traces one workload only (see the header).
        if ((quick)) && [[ -z $trace && -z $workload && $t == 1 && $w != md-small-2pe ]]; then
            continue
        fi
        runs=$((runs + 1))
        if out=$("$bin" --workload "$w" --trace "$t" ${pass[@]+"${pass[@]}"}); then
            printf '%s\n' "$out"
            [[ ${out##*$'\n'} == *'"correct":true'* ]] || incorrect=$((incorrect + 1))
        else
            incorrect=$((incorrect + 1))
        fi
    done
done
if ((incorrect)); then
    echo "run.sh: $incorrect of $runs runs failed an output check" >&2
    exit 1
fi
echo "run.sh: $runs runs, every output check passed"
