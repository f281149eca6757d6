#!/usr/bin/env python3
"""actop benchmark: builds the benchmark binary from source and runs it.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload halo_actop --seed 1 --seconds 6 --trace 0

The last line of standard output is the JSON result. The binary is built
with CMake into <build> = $CARGO_TARGET_DIR/perfbench ($CARGO_TARGET_DIR
defaults to .bench_build); traces go to <build>/traces and result files to
<build>/results.

Compare two result files (refused if they differ in shard count, host
thread count, workload, length or mode):

    python3 perfbench/run.py --compare A.json B.json
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Wall-clock limit for one benchmark process.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(out_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def run(args):
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for sub in ("traces", "results"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(out_dir, "traces", stem + ".json"),
           "--out", os.path.join(out_dir, "results", stem + ".json")]
    if args.shards:
        cmd += ["--shards", str(args.shards)]
    try:
        # subprocess.run kills and reaps the child on timeout.
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if code < 0:
        print("perfbench: benchmark binary killed by signal %d" % -code, file=sys.stderr)
        return 1
    return code


# Provenance fields that must match for two results to be comparable.
MUST_MATCH = ("workload", "shards", "nproc", "seconds", "trace")


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    pa, pb = a["provenance"], b["provenance"]
    differ = [k for k in MUST_MATCH if pa.get(k) != pb.get(k)]
    if differ:
        for k in differ:
            print("refused: %s differs (%s vs %s)" % (k, pa.get(k), pb.get(k)))
        return 2
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    print("%-40s %16s %16s %9s" % ("metric", "A", "B", "B/A"))
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        ratio = "%9.4f" % (vb / va) if va else "%9s" % "-"
        print("%-40s %16.6g %16.6g %s %s" % (name, va, vb, ratio, ma[name]["unit"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shards", type=int, default=0,
                        help="engine shards (default: the workload's recorded K)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
