#!/usr/bin/env bash
# CLI parent-equality witness: run the same nine configurations through two
# `namd-rs` binaries (a build of the parent commit and a build of this one),
# analyze one trajectory with each, and require byte-identical trajectories,
# energy logs and analysis observables.
#
#   scripts/cli_witness.sh <parent namd-rs> <this namd-rs>
#
# The deck is `sample-config`'s water box, 60 steps:
#   1. threads 2
#   2. threads 2 + backend proc
#   3. backend des
#   4. threads 2 + berendsen + checkpoints every 4 steps + a PE kill
#   5. config 4 stopped at step 8, then finished with restartFrom
#   6. threads 2 + pairlistMargin 1.5 + schedule shuffle (scheduleSeed 3)
#   7. threads 2 + a fault plan that drops three force messages
#   8. threads 1, which runs the same engine on one PE: compared with this
#      side's config 1, not with the parent's (whose threads 1 was a
#      separate sequential driver)
#   9. threads 1 + berendsen + pme on (mtsFrequency 1): the engine's PME
#      against a parent whose `pme on` ran the sequential MTS driver
# Then each binary runs `namd-rs analyze` on its own config 1 trajectory at
# --pes 2: the rdf, rmsd, contacts, msd and obs_crc lines must match (the
# timing line need not).
# Configs 1-7 and 9 are compared across the two binaries. Every `.xyz` is `cmp`'d;
# the logs are compared without the lines that carry wall-clock time or name
# the crash (`phase crashed`, `resumed from`, `done:`), and with each step's
# first line only: a rollback replays steps bit-identically, but where the
# kill lands within a multi-step phase moves which lines it re-logs. Exits
# non-zero on any difference.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <parent namd-rs> <this namd-rs>" >&2
  exit 2
fi
parent=$(realpath "$1")
this=$(realpath "$2")
work=$(mktemp -d "${TMPDIR:-/tmp}/cli_witness.XXXXXX")
trap 'rm -rf "$work"' EXIT

# deck <dir> <name> <steps> <extra config lines...>: sample-config with the
# run-specific keys replaced.
deck() {
  local dir=$1 name=$2 steps=$3
  shift 3
  "$this" sample-config |
    grep -vE '^(steps|thermostat|threads|outputName|trajectoryEvery)[[:space:]]' \
      >"$dir/$name.conf"
  printf '%s\n' "steps $steps" "outputName $name" "trajectoryEvery 5" "$@" \
    >>"$dir/$name.conf"
}

kill_drill=(
  "threads 2" "thermostat berendsen" "checkpointInterval 4"
  "faultPlan kill:entry=PatchRecvForces:dst=1:skip=40"
)

for side in parent this; do
  dir="$work/$side"
  mkdir -p "$dir"
  bin=${!side}
  deck "$dir" c1 60 "thermostat none" "threads 2"
  deck "$dir" c2 60 "thermostat none" "threads 2" "backend proc"
  deck "$dir" c3 60 "thermostat none" "threads 2" "backend des"
  deck "$dir" c4 60 "${kill_drill[@]}" "checkpointDir ck4"
  deck "$dir" c5 8 "${kill_drill[@]}" "checkpointDir ck5"
  deck "$dir" c6 60 "thermostat none" "threads 2" "pairlistMargin 1.5" \
    "schedule shuffle" "scheduleSeed 3"
  deck "$dir" c7 60 "thermostat none" "threads 2" \
    "faultPlan drop:entry=PatchRecvForces:limit=3"
  deck "$dir" c8 60 "thermostat none" "threads 1"
  deck "$dir" c9 60 "thermostat berendsen" "threads 1" "pme on"
  for c in c1 c2 c3 c4 c5 c6 c7 c8 c9; do
    (cd "$dir" && "$bin" run "$c.conf" >"$c.log")
  done
  # Leg two of config 5: same deck, full length, resumed from leg one.
  sed -i 's/^steps 8$/steps 60/' "$dir/c5.conf"
  (cd "$dir" && "$bin" run c5.conf --restart-from ck5 >c5b.log)
  box=$(awk '$1 == "boxSize" { print $2 }' "$dir/c1.conf")
  (cd "$dir" && "$bin" analyze c1.xyz --box "$box" --pes 2 >a1.log)
done

status=0
stable() {
  grep -vE '^(phase crashed|resumed from|done:)' "$1" |
    awk '/^ *[0-9]+ / && seen[$1]++ { next } { print }'
}
for c in c1 c2 c3 c4 c5 c6 c7 c9; do
  if ! cmp "$work/parent/$c.xyz" "$work/this/$c.xyz"; then
    echo "cli_witness: $c: trajectories differ" >&2
    status=1
  fi
done
for log in c1 c2 c3 c4 c5 c5b c6 c7 c9; do
  if ! diff <(stable "$work/parent/$log.log") <(stable "$work/this/$log.log"); then
    echo "cli_witness: $log: energy logs differ" >&2
    status=1
  fi
done
observables() { grep -E '^(rdf|rmsd|contacts|msd|obs_crc):' "$1"; }
if ! observables "$work/this/a1.log" | grep -q '^obs_crc:' ||
  ! diff <(observables "$work/parent/a1.log") <(observables "$work/this/a1.log"); then
  echo "cli_witness: analyze: observables differ" >&2
  status=1
fi
# Config 8 against this side's config 1; the header names the thread count.
if ! cmp "$work/this/c1.xyz" "$work/this/c8.xyz"; then
  echo "cli_witness: c8: threads 1 trajectory differs from threads 2" >&2
  status=1
fi
if ! diff <(stable "$work/this/c1.log" | grep -v '^namd-rs:') \
  <(stable "$work/this/c8.log" | grep -v '^namd-rs:'); then
  echo "cli_witness: c8: threads 1 energy log differs from threads 2" >&2
  status=1
fi
for log in c4 c5b; do
  # The drill is only a witness if it happened.
  grep -q '^resumed from\|^restarted from' "$work/this/$log.log" || {
    echo "cli_witness: $log: no rollback or restart in the log" >&2
    status=1
  }
done

if [ "$status" -eq 0 ]; then
  echo "cli_witness: 9 configurations and an analysis, trajectories, energy logs and observables identical"
fi
exit "$status"
