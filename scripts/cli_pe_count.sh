#!/usr/bin/env bash
# CLI PE-count witness: every run is the engine's, whose trajectory does
# not depend on the PE count or the backend, so under each thermostat the
# same deck must write the same trajectory at `threads 1`, at `threads 2`,
# and on `backend des` (3 virtual PEs).
#
#   scripts/cli_pe_count.sh <namd-rs>
#
# The deck is `sample-config`'s water box, 60 steps, a frame every 5; for
# `thermostat none | berendsen | langevin`, and for `pme on` +
# `mtsFrequency 2` under Langevin (24 outer steps of 2 timesteps), the three
# `.xyz` files are `cmp`'d.
#
# Checkpoints are written by the parent process between phases, so they
# restore the same trajectory on every backend: at `threads 2`, at
# `backend proc`, and at `threads 2` with `pme on` + `mtsFrequency 2`
# (24 outer steps), a Berendsen run with `checkpointInterval 4` is run
# clean, again with a PE kill
# (`faultPlan kill:entry=PatchRecvForces:dst=1:skip=40`), and again stopped
# at step 8 and finished with `--restart-from`; both drills must write the
# clean run's `.xyz`. Exits non-zero on any difference, or if the kill did
# not roll back to a checkpoint file or the restart did not begin at step 8.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <namd-rs>" >&2
  exit 2
fi
bin=$(realpath "$1")
work=$(mktemp -d "${TMPDIR:-/tmp}/cli_pe_count.XXXXXX")
trap 'rm -rf "$work"' EXIT

# deck <name> <steps> <extra config lines...>: sample-config with the
# run-specific keys replaced.
deck() {
  local name=$1 steps=$2
  shift 2
  "$bin" sample-config |
    grep -vE '^(steps|thermostat|threads|outputName|trajectoryEvery)[[:space:]]' \
      >"$work/$name.conf"
  printf '%s\n' "steps $steps" "outputName $name" "trajectoryEvery 5" "$@" \
    >>"$work/$name.conf"
}

pme=("pme on" "mtsFrequency 2")
status=0
for run in none berendsen langevin pme; do
  case $run in
    pme) steps=24 run_keys=("thermostat langevin" "${pme[@]}") ;;
    *) steps=60 run_keys=("thermostat $run") ;;
  esac
  for leg in t1 t2 des; do
    case $leg in
      t1) keys=("threads 1") ;;
      t2) keys=("threads 2") ;;
      des) keys=("threads 3" "backend des") ;;
    esac
    name=$run-$leg
    deck "$name" "$steps" "${run_keys[@]}" "${keys[@]}"
    (cd "$work" && "$bin" run "$name.conf" >"$name.log")
  done
  for leg in t2 des; do
    if ! cmp "$work/$run-t1.xyz" "$work/$run-$leg.xyz"; then
      echo "cli_pe_count: $run: $leg trajectory differs from threads 1" >&2
      status=1
    fi
  done
done

for leg in t2 proc pme; do
  case $leg in
    t2) steps=60 keys=("threads 2") ;;
    proc) steps=60 keys=("threads 2" "backend proc") ;;
    pme) steps=24 keys=("threads 2" "${pme[@]}") ;;
  esac
  keys+=("thermostat berendsen" "checkpointInterval 4")
  kill="faultPlan kill:entry=PatchRecvForces:dst=1:skip=40"
  deck "ck-$leg-clean" "$steps" "${keys[@]}" "checkpointDir ck-$leg-clean"
  deck "ck-$leg-kill" "$steps" "${keys[@]}" "checkpointDir ck-$leg-kill" "$kill"
  deck "ck-$leg-restart" 8 "${keys[@]}" "checkpointDir ck-$leg-restart"
  for name in clean kill restart; do
    (cd "$work" && "$bin" run "ck-$leg-$name.conf" >"ck-$leg-$name.log")
  done
  sed -i "s/^steps 8\$/steps $steps/" "$work/ck-$leg-restart.conf"
  (cd "$work" &&
    "$bin" run "ck-$leg-restart.conf" --restart-from "ck-$leg-restart" >"ck-$leg-resume.log")
  for name in kill restart; do
    if ! cmp "$work/ck-$leg-clean.xyz" "$work/ck-$leg-$name.xyz"; then
      echo "cli_pe_count: checkpoints $leg: $name trajectory differs from the clean run" >&2
      status=1
    fi
  done
  # A drill is only a witness if it happened: the kill rolled back to a
  # checkpoint file, and the restart began from the one written at step 8.
  if ! grep -q '^resumed from .*ckpt_[0-9]*\.ckpt at step' "$work/ck-$leg-kill.log" ||
    ! grep -q '^restarted from .* at step 8$' "$work/ck-$leg-resume.log"; then
    echo "cli_pe_count: checkpoints $leg: no rollback or no step-8 restart in the logs" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "cli_pe_count: 3 thermostats and pme, threads 1 / threads 2 / backend des trajectories" \
    "identical; checkpoint kill and restart drills at threads 2, backend proc and pme match" \
    "their clean runs"
fi
exit "$status"
