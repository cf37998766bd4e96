#!/usr/bin/env bash
# A/B benchmark of the working tree against a base commit.
#
# Extracts <base-ref> with `git archive`, and snapshots the working tree
# (tracked and untracked files, minus ignored ones), into sibling
# directories of one temporary directory, so both sides build and run
# from equivalent copies. Runs `python3 perfbench/run.py --workload
# <workload>` on both trees in <pairs> alternating pairs (base first in
# even pairs, head first in odd ones: b h h b b h ...), each tree built
# in its own CARGO_TARGET_DIR under the same temporary directory, which
# is always removed on exit.
#
# It prints every run's result line, then, per workload and for every
# end-to-end metric in BENCHMARK.json: each side's median and quartiles,
# the spread (IQR/median) against the metric's bound, the head median's
# change against the base median, and in how many pairs the head was
# better (ties count for neither side).
#
# Usage:
#   tools/ci/ab_bench.sh <base-ref> <workload> <pairs>
#
# <workload> is any value perfbench/run.py accepts for --workload,
# including "all". The benchmark's own run length (--seconds default)
# applies to both sides.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/../.." && pwd)"
usage="usage: ab_bench.sh <base-ref> <workload> <pairs>"
base_ref="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:?$usage}"
case "$pairs" in
    '' | *[!0-9]* | 0) echo "ab_bench: <pairs> must be a positive integer" >&2
                       exit 2 ;;
esac

cd "$repo_root"
base_sha="$(git rev-parse --verify "$base_ref^{commit}")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/base" "$work/head"
git archive "$base_sha" | tar -x -C "$work/base"
# Skip tracked files deleted in the working tree.
while IFS= read -r -d '' f; do
    if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
done < <(git ls-files -co --exclude-standard -z) |
    tar --null -T - -cf - | tar -x -C "$work/head"
runs="$work/runs.txt"
: > "$runs"

# One measuring run of one side; appends "run <pair> <side> <workload>
# <json>" per workload result line to $runs and echoes it.
run_side() {
    local pair="$1" side="$2"
    local tree="$work/$side" out
    out="$(cd "$tree" && CARGO_TARGET_DIR="$work/target-$side" \
        python3 perfbench/run.py --workload "$workload" \
        2>"$work/stderr-$side.log")" || {
        tail -n 20 "$work/stderr-$side.log" >&2
        echo "ab_bench: pair $pair: $side run failed" >&2
        exit 1
    }
    # Each workload's output starts "perfbench <name>..." and ends with
    # its JSON result line.
    local name="" line
    while IFS= read -r line; do
        case "$line" in
            "perfbench "*) name="${line#perfbench }"; name="${name%%:*}" ;;
            '{"correct"'*)
                echo "run $pair $side $name $line" | tee -a "$runs" ;;
        esac
    done <<< "$out"
}

echo "ab_bench: base $base_sha vs working tree, workload $workload," \
     "$pairs pairs"
echo "ab_bench: base tree $work/base, head tree $work/head"
for ((p = 0; p < pairs; p++)); do
    if ((p % 2 == 0)); then
        run_side "$p" base
        run_side "$p" head
    else
        run_side "$p" head
        run_side "$p" base
    fi
done

python3 - "$runs" "$repo_root/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

runs_path, bench_path = sys.argv[1], sys.argv[2]
metrics = json.load(open(bench_path))["end_to_end"]
results = {}  # workload -> side -> pair -> result
for line in open(runs_path):
    _, pair, side, name, doc = line.split(" ", 4)
    results.setdefault(name, {}).setdefault(side, {})[int(pair)] = \
        json.loads(doc)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


for name, sides in results.items():
    pairs = sorted(set(sides["base"]) & set(sides["head"]))
    correct = all(sides[s][p]["correct"] for s in sides for p in pairs)
    print("\n%s: %d pairs, every run correct: %s"
          % (name, len(pairs), "yes" if correct else "NO"))
    print("%-18s %-5s %12s %12s %12s %8s %6s %8s  %s"
          % ("metric", "side", "q1", "median", "q3", "iqr/med", "bound",
             "change", "head wins"))
    for m in metrics:
        key, lower = m["name"], m["better"] == "lower"
        wins = 0
        for p in pairs:
            b = sides["base"][p]["metrics"][key]["value"]
            h = sides["head"][p]["metrics"][key]["value"]
            if (h < b) if lower else (h > b):
                wins += 1
        base_med = None
        for side in ("base", "head"):
            values = [sides[side][p]["metrics"][key]["value"]
                      for p in pairs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            if side == "base":
                base_med = med
                tail = "%8s" % ""
            else:
                change = med / base_med - 1.0 if base_med else 0.0
                tail = "%+7.1f%%  %d/%d" % (100.0 * change, wins,
                                            len(pairs))
            print("%-18s %-5s %12.6g %12.6g %12.6g %8.3f %6g %s"
                  % (key, side, q1, med, q3, spread, m["bound"], tail))
EOF
