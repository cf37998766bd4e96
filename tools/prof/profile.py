#!/usr/bin/env python3
"""Sampled attribution of one sdysta run, by source line and function.

Builds a Release sdysta with -g and the pcsample.cc sampler, runs one
scenario under the sampler at --jobs 1, and resolves every sampled
program counter with `addr2line -i`. Each sample counts once, for the
innermost frame of its inline chain whose file lies under src/ (so a
std::vector access inside EventQueue::push counts for the line in
event_queue.hh that made it); samples with no such frame count for
their innermost frame, samples outside sdysta for their library.

Usage:
  tools/prof/profile.py [--build-dir DIR] [--top N]
                        [--min-samples-under DIR=N ...]
                        <scenario> [sdysta arguments ...]

  tools/prof/profile.py tab05 --requests 1000 --seeds 60

The build tree defaults to .prof_build/ at the repository root.

The sampler reads the x86-64 program counter register; on any other
target this prints "unsupported" and exits 0. It needs no perf and no
kernel setting. --min-samples-under src/sim/=50 exits 1 when fewer
samples than that land in a directory (a smoke check that symbols
resolve).
"""

import argparse
import collections
import os
import platform
import subprocess
import sys
import tempfile

REPO = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", ".."))


def build(build_dir):
    """Release sdysta with debug info, and the sampler beside it."""
    subprocess.run(
        ["cmake", "-S", REPO, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DCMAKE_CXX_FLAGS=-g"],
        check=True, stdout=subprocess.DEVNULL)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "sdysta"],
        check=True, stdout=subprocess.DEVNULL)
    sampler = os.path.join(build_dir, "pcsample.so")
    subprocess.run(
        ["c++", "-std=c++17", "-O2", "-shared", "-fPIC", "-o", sampler,
         os.path.join(REPO, "tools", "prof", "pcsample.cc"), "-ldl"],
        check=True)
    return os.path.join(build_dir, "sdysta"), sampler


def sample(binary, sampler, sdysta_args):
    """Run sdysta under the sampler; {(object, offset): count}."""
    counts = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, LD_PRELOAD=sampler)
        proc = subprocess.run(
            [binary, *sdysta_args, "--jobs", "1",
             "--out", os.path.join(tmp, "report.json")],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            sys.exit(f"profile: sdysta exited with {proc.returncode}")
        for name in os.listdir(tmp):
            if not (name.startswith("pcsample.") and name.endswith(".txt")):
                continue
            with open(os.path.join(tmp, name)) as f:
                for line in f:
                    count, obj, offset = line.split()
                    counts[(obj, int(offset, 16))] += int(count)
    return counts


def resolve(binary, offsets):
    """{offset: [(function, file, line)], innermost frame first}."""
    query = "\n".join(hex(o) for o in offsets) + "\n"
    out = subprocess.run(
        ["addr2line", "-e", binary, "-a", "-f", "-i", "-C"],
        input=query, capture_output=True, text=True, check=True).stdout
    frames = {}
    current = None
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            frames[current] = []
            i += 1
            continue
        func = lines[i]
        where = lines[i + 1] if i + 1 < len(lines) else "??:0"
        path, _, lineno = where.rpartition(":")
        frames[current].append((func, path, lineno.split(" ")[0]))
        i += 2
    return frames


def attribute(counts, binary):
    """Per-sample (function, 'file:line') with the src/ rule above."""
    binary = os.path.realpath(binary)

    def in_binary(obj):
        return obj != "?" and os.path.realpath(obj) == binary

    ours = sorted({off for (obj, off) in counts if in_binary(obj)})
    frames = resolve(binary, ours) if ours else {}
    src = os.path.join(REPO, "src") + os.sep
    hits = collections.Counter()
    for (obj, off), n in counts.items():
        chain = frames.get(off) if in_binary(obj) else None
        if not chain:
            hits[("(" + os.path.basename(obj) + ")", "")] += n
            continue
        func, path, line = next(
            (f for f in chain if os.path.realpath(f[1]).startswith(src)),
            chain[0])
        path = os.path.realpath(path)
        if path.startswith(REPO + os.sep):
            path = os.path.relpath(path, REPO)
        hits[(func, f"{path}:{line}")] += n
    return hits


def table(title, counter, total, top):
    print(f"\n{title}")
    for key, n in counter.most_common(top):
        print(f"{100.0 * n / total:6.2f}% {n:8d}  {key}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--build-dir", default=os.path.join(REPO, ".prof_build"))
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--min-samples-under", action="append", default=[],
                        metavar="DIR=N")
    parser.add_argument("sdysta_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if not args.sdysta_args:
        parser.error("name a scenario")

    if platform.system() != "Linux" or platform.machine() != "x86_64":
        print(f"profile: unsupported on {platform.system()} "
              f"{platform.machine()} (the sampler reads x86-64 REG_RIP)")
        return 0

    # sdysta runs in a scratch directory, so a relative build tree
    # would not resolve there (neither the binary nor LD_PRELOAD).
    binary, sampler = build(os.path.abspath(args.build_dir))
    hits = attribute(sample(binary, sampler, args.sdysta_args), binary)
    total = sum(hits.values())
    if total == 0:
        sys.exit("profile: no samples")

    by_line = collections.Counter()
    by_func = collections.Counter()
    by_file = collections.Counter()
    by_dir = collections.Counter()
    for (func, where), n in hits.items():
        path = where.rpartition(":")[0]
        by_line[f"{where}  {func}" if where else func] += n
        by_func[func] += n
        by_file[path if where.startswith("src/") else "(outside src/)"] += n
        by_dir[os.path.dirname(path) + "/"
               if where.startswith("src/") else "(outside src/)"] += n

    print(f"profile: {total} samples (one per 1 ms of CPU time, or per "
          f"scheduler tick if longer), "
          f"sdysta {' '.join(args.sdysta_args)} --jobs 1")
    table("by directory", by_dir, total, args.top)
    table("by file", by_file, total, args.top)
    table("by source line (innermost frame under src/)", by_line, total,
          args.top)
    table("by function", by_func, total, args.top)

    failed = False
    for spec in args.min_samples_under:
        where, _, need = spec.partition("=")
        got = sum(n for d, n in by_dir.items() if d.startswith(where))
        print(f"profile: {got} samples under {where} (need >= {need})")
        failed |= got < int(need)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
