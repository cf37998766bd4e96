#!/usr/bin/env bash
# A/B benchmark of the working tree against a base commit, or an A/A
# run of the working tree against itself (the noise floor).
#
# Extracts <base-ref> with `git archive` (or, with --aa, snapshots the
# working tree a second time), and snapshots the working tree (tracked
# and untracked files, minus ignored ones), into sibling directories of
# one temporary directory, so both sides build and run from equivalent
# copies. Both sides are built, each in its own CARGO_TARGET_DIR under
# the same temporary directory, before the first pair; the directory is
# always removed on exit. Then `python3 perfbench/run.py --workload
# <workload>` runs on both trees in <pairs> pairs, by one of two
# protocols, printed at the start:
#
#   concurrent (4 or more usable CPUs): the two sides of a pair run at
#     the same time, each pinned with `taskset -c` to its own half of
#     the usable CPUs; the halves swap every pair. Both sides then see
#     the same host load, which sequential runs minutes apart do not.
#   sequential (fewer CPUs): the sides alternate, base first in even
#     pairs and head first in odd ones (b h h b b h ...).
#
# It prints every run's result line, then, per workload and for every
# end-to-end metric in BENCHMARK.json: each side's median and quartiles,
# the spread (IQR/median) against the metric's bound, the head median's
# change against the base median, in how many pairs the head was better
# (ties count for neither side), every pair's head/base ratio, and the
# 90th percentile of |1 - ratio| over the pairs. In an A/A run that
# percentile is the noise floor: an A/B change in a metric counts only
# when it is larger than the floor measured by the same protocol.
#
# Usage:
#   tools/ci/ab_bench.sh [--seed N] <base-ref> <workload> <pairs>
#   tools/ci/ab_bench.sh [--seed N] --aa <workload> <pairs>
#
# <workload> is any value perfbench/run.py accepts for --workload,
# including "all". The benchmark's own run length (--seconds default)
# applies to both sides. --seed N is forwarded to every run as
# `perfbench/run.py --seed N` (the workload seed; default: each
# scenario's own), for held-out-seed pairs.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/../.." && pwd)"
usage="usage: ab_bench.sh [--seed N] <base-ref>|--aa <workload> <pairs>"
seed_args=()
if [ "${1:-}" = "--seed" ]; then
    case "${2:-}" in
        '' | *[!0-9]*) echo "ab_bench: --seed expects a non-negative" \
                            "integer" >&2
                       exit 2 ;;
    esac
    seed_args=(--seed "$2")
    shift 2
fi
base_ref="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:?$usage}"
case "$pairs" in
    '' | *[!0-9]* | 0) echo "ab_bench: <pairs> must be a positive integer" >&2
                       exit 2 ;;
esac

cd "$repo_root"
if [ "$base_ref" != "--aa" ]; then
    base_sha="$(git rev-parse --verify "$base_ref^{commit}")"
fi
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Copy the working tree (tracked and untracked, minus ignored files and
# tracked files deleted in the working tree) into $1.
snapshot() {
    while IFS= read -r -d '' f; do
        if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
    done < <(git ls-files -co --exclude-standard -z) |
        tar --null -T - -cf - | tar -x -C "$1"
}

mkdir "$work/base" "$work/head"
if [ "$base_ref" = "--aa" ]; then
    snapshot "$work/base"
    echo "ab_bench: A/A: working tree vs working tree, workload" \
         "$workload, $pairs pairs"
else
    git archive "$base_sha" | tar -x -C "$work/base"
    echo "ab_bench: base $base_sha vs working tree, workload $workload," \
         "$pairs pairs"
fi
snapshot "$work/head"
if ((${#seed_args[@]})); then
    echo "ab_bench: every run with ${seed_args[*]}"
fi
echo "ab_bench: base tree $work/base, head tree $work/head"

# Split the usable CPUs into two halves for the concurrent protocol.
read -r cpu_count lo_cpus hi_cpus < <(python3 -c '
import os
cpus = sorted(os.sched_getaffinity(0))
half = len(cpus) // 2
print(len(cpus), ",".join(map(str, cpus[:half])),
      ",".join(map(str, cpus[half:2 * half])))')
if ((cpu_count >= 4)); then
    concurrent=1
    echo "ab_bench: protocol: concurrent pairs, sides pinned to CPUs" \
         "$lo_cpus and $hi_cpus (swapped every pair)"
else
    concurrent=0
    echo "ab_bench: protocol: sequential alternating pairs" \
         "($cpu_count usable CPUs, concurrent needs 4)"
fi

# Build both sides with perfbench's own build step before any run, so
# no run waits on (or overlaps) a build.
for side in base head; do
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" \
        python3 -c 'import sys; sys.path.insert(0, "perfbench")
import run; sys.exit(run.build() is None)' \
        2>"$work/build-$side.log") || {
        tail -n 20 "$work/build-$side.log" >&2
        echo "ab_bench: $side build failed" >&2
        exit 1
    }
done
echo "ab_bench: both sides built"

runs="$work/runs.txt"
: > "$runs"

# One measuring run of one side, pinned to CPU list $3 when given;
# writes "run <pair> <side> <workload> <json>" per workload result line
# to $work/run-<pair>-<side>.txt.
run_side() {
    local pair="$1" side="$2" cpus="${3:-}"
    local tree="$work/$side" out pin=()
    if [ -n "$cpus" ]; then pin=(taskset -c "$cpus"); fi
    out="$(cd "$tree" && CARGO_TARGET_DIR="$work/target-$side" \
        "${pin[@]}" python3 perfbench/run.py --workload "$workload" \
        "${seed_args[@]}" 2>"$work/stderr-$pair-$side.log")" || {
        tail -n 20 "$work/stderr-$pair-$side.log" >&2
        echo "ab_bench: pair $pair: $side run failed" >&2
        return 1
    }
    # Each workload's output starts "perfbench <name>..." and ends with
    # its JSON result line.
    local name="" line
    while IFS= read -r line; do
        case "$line" in
            "perfbench "*) name="${line#perfbench }"; name="${name%%:*}" ;;
            '{"correct"'*) echo "run $pair $side $name $line" ;;
        esac
    done <<< "$out" > "$work/run-$pair-$side.txt"
}

for ((p = 0; p < pairs; p++)); do
    if ((concurrent)); then
        if ((p % 2 == 0)); then
            base_cpus="$lo_cpus" head_cpus="$hi_cpus"
        else
            base_cpus="$hi_cpus" head_cpus="$lo_cpus"
        fi
        run_side "$p" base "$base_cpus" & base_pid=$!
        run_side "$p" head "$head_cpus" & head_pid=$!
        status=0
        wait "$base_pid" || status=1
        wait "$head_pid" || status=1
        ((status == 0)) || exit 1
    elif ((p % 2 == 0)); then
        run_side "$p" base
        run_side "$p" head
    else
        run_side "$p" head
        run_side "$p" base
    fi
    cat "$work/run-$p-base.txt" "$work/run-$p-head.txt" | tee -a "$runs"
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


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


for name, sides in results.items():
    pairs = sorted(set(sides["base"]) & set(sides["head"]))
    correct = all(sides[s][p]["correct"] for s in sides for p in pairs)
    print("\n%s: %d pairs, every run correct: %s"
          % (name, len(pairs), "yes" if correct else "NO"))
    print("%-18s %-5s %12s %12s %12s %8s %6s %8s  %s"
          % ("metric", "side", "q1", "median", "q3", "iqr/med", "bound",
             "change", "head wins"))
    ratio_rows = []
    for m in metrics:
        key, lower = m["name"], m["better"] == "lower"
        wins = 0
        ratios = []
        for p in pairs:
            b = sides["base"][p]["metrics"][key]["value"]
            h = sides["head"][p]["metrics"][key]["value"]
            if (h < b) if lower else (h > b):
                wins += 1
            ratios.append(h / b if b else (1.0 if h == b else float("inf")))
        ratio_rows.append((key, ratios))
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
    print("%-18s %10s  %s" % ("metric", "p90|1-r|",
                              "head/base ratio r per pair"))
    for key, ratios in ratio_rows:
        floor = p90([abs(1.0 - r) for r in ratios])
        print("%-18s %10.4f  %s"
              % (key, floor, " ".join("%.4f" % r for r in ratios)))
EOF
