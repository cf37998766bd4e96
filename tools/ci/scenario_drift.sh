#!/usr/bin/env bash
# Zero-drift gate for the scenario files.
#
# Builds `sdysta` at <base-ref> (in a temporary git worktree) and at the
# working tree, runs every scenarios/*.scn of the working tree on both
# binaries at the CI smoke size, plus tab05 at the benchmark's queue
# depth, chaos at 2000 requests (materialized and streaming) and a
# temporary child of chaos with a tighter retry timeout, and
# compares each pair of reports with
# `sdysta --diff` (which ignores the wall-clock 'meta' section) and each
# pair of their CSV twins byte for byte. The traced outputs (chrome
# trace, series CSV, --gantt stdout) of every chaos cell and both
# hetero-failover cells must match byte for byte too. It also
# compares, byte for byte, `sdysta <name> --print-spec` for every built-in
# name, `sdysta --list-scenarios` stdout and the stdout of every
# examples/ program. Any difference fails the
# gate: a change that means to move a result must say so and update this
# expectation explicitly.
#
# Usage:
#   tools/ci/scenario_drift.sh <base-ref> [<build-dir>]
#
# <build-dir> (default: build) holds the working tree's build; it is
# configured if needed and `sdysta` and the examples are (re)built
# there. The base
# worktree, its build and the reports go to a temporary directory that
# is removed on exit.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/../.." && pwd)"
base_ref="${1:?usage: scenario_drift.sh <base-ref> [<build-dir>]}"
head_build="${2:-build}"
smoke=(--requests 40 --seeds 1 --samples 60 --jobs 2)

cd "$repo_root"
base_sha="$(git rev-parse --verify "$base_ref^{commit}")"
work="$(mktemp -d)"
base_tree="$work/base"

cleanup() {
    git -C "$repo_root" worktree remove --force "$base_tree" \
        >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT

examples=()
for src in examples/*.cpp; do
    examples+=("$(basename "$src" .cpp)")
done

build_targets() {
    local src="$1" dir="$2"
    if [ ! -f "$dir/CMakeCache.txt" ]; then
        cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
    fi
    cmake --build "$dir" -j 2 --target sdysta "${examples[@]}" >/dev/null
}

echo "scenario_drift: base $base_sha"
git worktree add --detach --force "$base_tree" "$base_sha" >/dev/null
build_targets "$base_tree" "$work/base-build"
build_targets "$repo_root" "$head_build"
base_bin="$work/base-build/sdysta"
head_bin="$head_build/sdysta"

mkdir -p "$work/reports"
drifted=()

# Run one scenario on both binaries, --diff the two reports and cmp
# their CSV twins (sdysta writes <out>.csv beside every <out>.json).
check_drift() {
    local label="$1" scn="$2"
    local report="$work/reports/$label"
    shift 2
    for side in base head; do
        bin="${side}_bin"
        "${!bin}" "$scn" "$@" --out "${report}_$side.json" >/dev/null
    done
    if "$head_bin" --diff "${report}_base.json" "${report}_head.json"; then
        echo "scenario_drift: $label: zero drift"
    else
        drifted+=("$label")
    fi
    if cmp -s "${report}_base.csv" "${report}_head.csv"; then
        echo "scenario_drift: $label: same CSV"
    else
        drifted+=("$label.csv")
    fi
}

for scn in scenarios/*.scn; do
    check_drift "$(basename "$scn" .scn)" "$scn" "${smoke[@]}"
done
# tab05 again at the benchmark's depth (ready sets ~7 deep on average,
# up to ~85): at the smoke size they stay ~3 deep, too shallow for
# long Dysta-HW scans or its FIFO's host-side overflow.
check_drift tab05-deep scenarios/tab05.scn \
    --requests 1000 --seeds 20 --samples 60 --jobs 2
# chaos again deep enough to reach the resilience paths (at the smoke
# size no cell fires a failure, timeout, retry, hedge win or brown-out
# shed), once materialized and once streaming.
deep_chaos=(--requests 2000 --seeds 2 --samples 60 --jobs 2)
check_drift chaos-deep scenarios/chaos.scn "${deep_chaos[@]}"
check_drift chaos-deep-streaming scenarios/chaos.scn "${deep_chaos[@]}" \
    --streaming on
# chaos with a tighter retry allowance, so retried attempts time out
# again (attempt >= 1) and the retry back-off decides when.
printf 'include = %s\nretry = retry:max=2,backoff=2,timeout=0.3,budget=0.5\n' \
    "$repo_root/scenarios/chaos.scn" >"$work/chaos-retry.scn"
check_drift chaos-retry "$work/chaos-retry.scn" "${deep_chaos[@]}"

# Re-run one cell with full telemetry on both binaries and compare its
# chrome trace, series CSV and --gantt stdout (the "Wrote <path>" lines
# masked) byte for byte.
check_traced() {
    local label="$1" scn="$2" cell="$3"
    local out="$work/reports/$label"
    shift 3
    for side in base head; do
        bin="${side}_bin"
        "${!bin}" "$scn" "$@" --cell "$cell" --gantt \
            --chrome-trace "${out}_$side.trace.json" \
            --series-csv "${out}_$side.series.csv" \
            --out "${out}_$side.json" |
            sed 's/^Wrote .*/Wrote <path>/' >"${out}_$side.gantt.txt"
    done
    for part in trace.json series.csv gantt.txt; do
        if cmp -s "${out}_base.$part" "${out}_head.$part"; then
            echo "scenario_drift: $label: same $part"
        else
            drifted+=("$label.$part")
        fi
    done
}
# Chaos cell 1 traces hedge, hedge_cancel, timeout, retry, brownout
# and fail/recover/restart events; hetero-failover cell 1 migrations.
for cell in 0 1 2; do
    check_traced "chaos-cell$cell" scenarios/chaos.scn "$cell" \
        --requests 2000 --seeds 1 --samples 60 --jobs 2
done
for cell in 0 1; do
    check_traced "hetero-failover-cell$cell" scenarios/hetero-failover.scn \
        "$cell" --samples 60 --jobs 2
done

# The built-in names must resolve to the same specs and list the same.
for name in $("$base_bin" --list-scenarios |
              awk '/^== Built-in/ {on = 1; next}
                   /^==/ {on = 0}
                   on && /^\| / && $2 != "name" {print $2}'); do
    spec="$work/reports/$name.spec"
    "$base_bin" "$name" --print-spec >"$spec.base"
    if "$head_bin" "$name" --print-spec >"$spec.head" &&
        cmp -s "$spec.base" "$spec.head"; then
        echo "scenario_drift: builtin $name: same spec"
    else
        drifted+=("builtin:$name")
    fi
done
"$base_bin" --list-scenarios >"$work/reports/list_base.txt"
"$head_bin" --list-scenarios >"$work/reports/list_head.txt"
if cmp -s "$work/reports/list_base.txt" "$work/reports/list_head.txt"; then
    echo "scenario_drift: --list-scenarios: same output"
else
    drifted+=("--list-scenarios")
fi

# The examples/ programs print fixed-seed tables (and arvr_wearable a
# per-request Gantt chart) and write no files.
for ex in "${examples[@]}"; do
    out="$work/reports/example-$ex"
    "$work/base-build/$ex" >"$out.base.txt"
    "$head_build/$ex" >"$out.head.txt"
    if cmp -s "$out.base.txt" "$out.head.txt"; then
        echo "scenario_drift: example $ex: same stdout"
    else
        drifted+=("example:$ex")
    fi
done

if [ "${#drifted[@]}" -ne 0 ]; then
    echo "scenario_drift: FAIL — drift against $base_ref in:" \
         "${drifted[*]}" >&2
    exit 1
fi
echo "scenario_drift: zero drift on all scenarios against $base_ref"
