#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite and clippy must pass
# (blocking); rustfmt is advisory (non-blocking) so style churn never
# masks a real regression.
set -uo pipefail
cd "$(dirname "$0")/.."

status=0

echo "==> cargo build --release"
cargo build --release || status=1

echo "==> cargo test -q"
cargo test -q || status=1

# Root `cargo test` runs the root package only; every other package's
# tests run here: unit tests (engine, recovery, proc, scheduler, ...), the
# binaries' unit tests and each crate's own tests/*.rs (the CLI's binary
# tests, the checkpoint codec's property tests). Blocking.
echo "==> crate tests (cargo test --workspace --exclude namd-repro --tests)"
cargo test --workspace --exclude namd-repro --tests --offline -q || status=1

# `--tests` skips every crate's doc tests, and the root `cargo test` runs the
# root package's only: the examples in the crates' API docs are compiled and
# run here. Blocking — a doc example that no longer builds is a wrong doc.
echo "==> crate doc tests (cargo test --workspace --doc)"
cargo test --workspace --doc --offline -q || status=1

# Rustdoc warnings fail the gate: a doc link to a deleted, renamed or
# private item is a wrong doc. Blocking.
echo "==> rustdoc warnings (cargo doc --workspace --no-deps, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q || status=1

# Bounded schedule-fuzz soak: more seeds × policies than the default run,
# still deterministic (cases are seeded per test name + index). Blocking —
# an invariant-oracle violation here is a real runtime bug.
echo "==> schedule fuzz soak (SCHEDULE_FUZZ_CASES=25)"
SCHEDULE_FUZZ_CASES=25 cargo test -q --test schedule_fuzz || status=1

# Checkpoint → PE-kill → recover round trip at the soak case count, through
# `recovery::advance` — the driver the CLI and the service ship, not a
# test-only copy of it. Blocking — a recovered run that is not bit-identical
# to the clean run breaks the restart guarantee.
echo "==> checkpoint kill/recover soak (SCHEDULE_FUZZ_CASES=25)"
SCHEDULE_FUZZ_CASES=25 cargo test -q --test checkpoint_restart || status=1

# Proc backend: real OS processes over Unix sockets must stay bit-identical
# to DES/threads (equivalence tests + the seeds × PE-counts fuzz group), and
# a SIGKILLed worker must recover through checkpoints — again through the
# shipped `recovery::advance`. Blocking.
echo "==> proc backend equivalence + fuzz (SCHEDULE_FUZZ_CASES=25)"
SCHEDULE_FUZZ_CASES=25 cargo test -q --test proc_backend || status=1

# Scenario-zoo LB stress at a reduced scenario count (the zoo is ordered
# most-stressing first, so the reduced run keeps the hot-spot and droplet
# scenarios). Blocking — a blown imbalance budget on the deterministic DES
# backend is a real LB regression, and an oracle violation on DES or on
# the threads backend's real-kernel runs is a runtime bug; the full matrix
# runs in CI.
echo "==> scenario-zoo LB stress (SCENARIO_STRESS_CASES=3)"
SCENARIO_STRESS_CASES=3 cargo test -q --test scenario_stress || status=1

# Parallel trajectory analysis: closed-form observables (ideal-gas RDF,
# rigid-motion RMSD, random-walk MSD slope) plus des/threads/proc ×
# PE-count bit-identity through the reduce tree. Blocking — a diverged
# obs_crc is a determinism regression in the runtime or the reduction.
echo "==> trajectory-analysis correctness (closed forms + bit-identity)"
cargo test -q --test analyze_correctness || status=1

# Every cutoff run of `namd-rs run` is the engine's, so threads 1, threads 2
# and the DES backend must write one trajectory under each thermostat.
# Blocking — a difference means the PE count moved a bit of the CLI's output.
echo "==> CLI PE-count witness (scripts/cli_pe_count.sh)"
{ cargo build --release -q -p namd-cli &&
  bash scripts/cli_pe_count.sh target/release/namd-rs; } || status=1

# benchmark/ is a workspace of its own, so nothing above compiles it: a
# crate API change can break the harness without any test noticing.
# Blocking — the benchmark is the only way this repo is measured.
echo "==> benchmark harness still compiles against the crates"
cargo check --release --offline --manifest-path benchmark/Cargo.toml || status=1
# The check refreshes benchmark/Cargo.lock in the work tree; a staged
# refresh would read as an edit under benchmark/.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git checkout -- benchmark/Cargo.lock
fi

# `cargo test` skips bench targets, so nothing above compiles
# crates/bench/benches/*.rs: a kernel signature change can break
# the criterion benches unnoticed. Blocking — compile them, run nothing.
echo "==> criterion benches still compile"
cargo bench --offline --no-run -p namd-bench || status=1

# Lints fail the gate: the workspace is clippy-clean under -D warnings, so
# a new lint is a new finding, not churn. Blocking.
echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings || status=1

echo "==> cargo fmt --check (non-blocking)"
if ! cargo fmt --all -- --check; then
  echo "WARNING: rustfmt would reformat files (non-blocking)"
fi

# One side per PR: a change touches benchmark/ + BENCHMARK.json or
# everything else, never both. Blocking.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  changed=$(git diff --name-only HEAD)
  bench_side=$(echo "$changed" | grep -E '^(benchmark/|BENCHMARK\.json$)' || true)
  code_side=$(echo "$changed" | grep -vE '^(benchmark/|BENCHMARK\.json$)' || true)
  if [ -n "$bench_side" ] && [ -n "$code_side" ]; then
    echo "tier1: change touches both sides of the benchmark boundary:"
    echo "$bench_side" | sed 's/^/  benchmark side: /'
    echo "$code_side" | sed 's/^/  program side:   /'
    status=1
  fi
fi

if [ "$status" -ne 0 ]; then
  echo "tier1: FAILED (build or tests)"
else
  echo "tier1: OK"
fi
exit "$status"
