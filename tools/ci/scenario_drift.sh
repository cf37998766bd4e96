#!/usr/bin/env bash
# Zero-drift gate for the scenario files.
#
# Builds `sdysta` at <base-ref> (in a temporary git worktree) and at the
# working tree, runs every scenarios/*.scn of the working tree on both
# binaries at the CI smoke size, plus tab05 at the benchmark's queue
# depth, and compares each pair of reports with
# `sdysta --diff` (which ignores the wall-clock 'meta' section) and each
# pair of their CSV twins byte for byte. It also
# compares, byte for byte, `sdysta <name> --print-spec` for every built-in
# name and `sdysta --list-scenarios` stdout. Any difference fails the
# gate: a change that means to move a result must say so and update this
# expectation explicitly.
#
# Usage:
#   tools/ci/scenario_drift.sh <base-ref> [<build-dir>]
#
# <build-dir> (default: build) holds the working tree's build; it is
# configured if needed and `sdysta` is (re)built there. The base
# worktree, its build, trace caches and reports go to a temporary
# directory that is removed on exit.
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

build_sdysta() {
    local src="$1" dir="$2"
    if [ ! -f "$dir/CMakeCache.txt" ]; then
        cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
    fi
    cmake --build "$dir" -j 2 --target sdysta >/dev/null
}

echo "scenario_drift: base $base_sha"
git worktree add --detach --force "$base_tree" "$base_sha" >/dev/null
build_sdysta "$base_tree" "$work/base-build"
build_sdysta "$repo_root" "$head_build"
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
        "${!bin}" "$scn" "$@" \
            --trace-cache "$work/tc-$side" \
            --out "${report}_$side.json" >/dev/null
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

if [ "${#drifted[@]}" -ne 0 ]; then
    echo "scenario_drift: FAIL — drift against $base_ref in:" \
         "${drifted[*]}" >&2
    exit 1
fi
echo "scenario_drift: zero drift on all scenarios against $base_ref"
