#!/usr/bin/env bash
# CLI PE-count witness: every cutoff run is the engine's, whose trajectory
# does not depend on the PE count or the backend, so under each thermostat
# the same deck must write the same trajectory at `threads 1`, at
# `threads 2`, and on `backend des` (3 virtual PEs).
#
#   scripts/cli_pe_count.sh <namd-rs>
#
# The deck is `sample-config`'s water box, 60 steps, a frame every 5; for
# `thermostat none | berendsen | langevin` the three `.xyz` files are
# `cmp`'d. Exits non-zero on any difference.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <namd-rs>" >&2
  exit 2
fi
bin=$(realpath "$1")
work=$(mktemp -d "${TMPDIR:-/tmp}/cli_pe_count.XXXXXX")
trap 'rm -rf "$work"' EXIT

status=0
for thermostat in none berendsen langevin; do
  for leg in t1 t2 des; do
    case $leg in
      t1) keys=("threads 1") ;;
      t2) keys=("threads 2") ;;
      des) keys=("threads 3" "backend des") ;;
    esac
    name=$thermostat-$leg
    "$bin" sample-config |
      grep -vE '^(steps|thermostat|threads|outputName|trajectoryEvery)[[:space:]]' \
        >"$work/$name.conf"
    printf '%s\n' "steps 60" "outputName $name" "trajectoryEvery 5" \
      "thermostat $thermostat" "${keys[@]}" >>"$work/$name.conf"
    (cd "$work" && "$bin" run "$name.conf" >"$name.log")
  done
  for leg in t2 des; do
    if ! cmp "$work/$thermostat-t1.xyz" "$work/$thermostat-$leg.xyz"; then
      echo "cli_pe_count: thermostat $thermostat: $leg trajectory differs from threads 1" >&2
      status=1
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "cli_pe_count: 3 thermostats, threads 1 / threads 2 / backend des trajectories identical"
fi
exit "$status"
