#!/usr/bin/env bash
# Fail when the PE count changed a trajectory bit in the benchmark's small
# MD deck. Force sums are fixed-point integer sums, the same in any order
# and wherever the computes ran, so at equal seed every md-small-2pe result
# document must carry md-small-1pe's state CRCs — crcs.after_warmup and
# crcs.common_step — although the two runs balance their computes
# differently, or not at all.
#
#   scripts/pe_count_crcs.sh [DIR]
#
# DIR (default .bench_out) holds the result documents of a finished
# `benchmark/run.sh`. A 2-PE document is compared with the 1-PE one of the
# same seed and mode, else with the untraced 1-PE one of that seed, on the
# CRC names both carry. Exits 1 on a difference, or when no pair is found.
set -euo pipefail

dir=${1:-.bench_out}

# crc FILE NAME: the value of "NAME" in the document's crcs object.
crc() {
    { grep -o "\"$2\":\"[0-9a-f]*\"" "$1" || true; } | head -n 1 | cut -d '"' -f 4
}

compared=0
for two in "$dir"/md-small-2pe-seed*.json; do
    [[ -e $two ]] || continue
    one=${two/md-small-2pe/md-small-1pe}
    [[ -e $one ]] || one=${one%-*}-untraced.json
    [[ -e $one ]] || continue
    shared=0
    for name in after_warmup common_step; do
        a=$(crc "$one" "$name")
        b=$(crc "$two" "$name")
        [[ -n $a && -n $b ]] || continue
        if [[ $a != "$b" ]]; then
            echo "pe_count_crcs: $name differs: $a in $one, $b in $two" >&2
            exit 1
        fi
        shared=$((shared + 1))
    done
    if ((shared == 0)); then
        echo "pe_count_crcs: $one and $two share no state CRC" >&2
        exit 1
    fi
    compared=$((compared + 1))
done

if ((compared == 0)); then
    echo "pe_count_crcs: no md-small-2pe document with a md-small-1pe one of its seed in $dir" >&2
    exit 1
fi
echo "pe_count_crcs: $compared md-small-2pe documents carry md-small-1pe's state CRCs"
