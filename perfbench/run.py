#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload tab05 --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --self-test             # goldens, fidelity, --jobs
    python3 perfbench/run.py --write-golden          # after an intended change

The first call builds the simulator library and the C++ benchmark program from
source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls rebuild only what changed. Build
output goes to stderr. A measuring run prints its metrics by name and
ends its standard output with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is non-zero, with no JSON line, when the build or the
benchmark program fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["megascale", "tab05", "batching", "chaos"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: %s timed out after %d s\n"
                         % (os.path.basename(cmd[0]), timeout))
        return 1, None
    return proc.returncode, out


def build():
    """Configure (once) and build; returns the program path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        except OSError as e:
            sys.stderr.write("perfbench: cannot run %s: %s\n" % (cmd[0], e))
            return None
        if code != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def bench_args(args, workload):
    cmd = ["--workload-dir", os.path.join(HERE, "workloads"),
           "--golden-dir", os.path.join(HERE, "golden")]
    if workload:
        cmd += ["--workload", workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd


def run_all(binary, args):
    """Every workload in its own process (peak RSS is per process)."""
    results = {}
    for workload in WORKLOADS:
        code, out = run([binary] + bench_args(args, workload),
                        RUN_TIMEOUT_S, stdout=subprocess.PIPE)
        text = (out or b"").decode()
        sys.stdout.write(text)
        if code != 0:
            return code or 1
        results[workload] = json.loads(text.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print("\n%-28s %-6s" % ("metric", "unit")
          + "".join("%16s" % w for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        row = "".join("%16.6g" % results[w]["metrics"][name]["value"]
                      for w in WORKLOADS)
        print("%-28s %-6s%s" % (name, unit, row))
    print("%-35s" % "correct"
          + "".join("%16s" % results[w]["correct"] for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the scenario's own)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.write_golden):
        parser.error("--workload, --self-test or --write-golden is required")

    binary = build()
    if binary is None:
        return 1
    sys.stdout.flush()
    if args.workload == "all":
        return run_all(binary, args)
    cmd = [binary] + bench_args(args, args.workload)
    if args.self_test:
        cmd.append("--self-test")
    elif args.write_golden:
        cmd.append("--write-golden")
    code, _ = run(cmd, RUN_TIMEOUT_S)
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
