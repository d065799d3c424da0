#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload check-explore --seed 1 --seconds 10 --trace 0

perfbench/ftss_bench.cc is built from source with CMake into .bench_build
on first use; later runs only check that it is up to date.  Build output
goes to stderr, so the last line of stdout is ftss_bench's JSON result.
--trace 1 adds the traced pass, whose spans land in
.bench_build/trace/<workload>-<seed>/spans.jsonl.

  python3 perfbench/run.py --smoke-test --binary PATH

runs every workload BENCHMARK.json declares at --smoke size, untraced and
traced, and checks that each exits 0 and prints exactly the declared metric
names (the bench_e2e_smoke ctest).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")


BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures (once) and builds ftss_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        sys.exit("perfbench: no ftss source tree next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "ftss_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "ftss_bench")


def run(binary, args):
    """Runs ftss_bench; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def smoke_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(binary))) as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                args = ["--workload", workload, "--seed", "1", "--smoke"]
                if trace:
                    args += ["--trace-out", os.path.join(tmp, workload)]
                code, result = run(binary, args)
                names = set(result["metrics"]) if result else set()
                good = code == 0 and result is not None and result["correct"] and \
                    names == want[trace]
                ok = ok and good
                print("%-20s trace=%d exit=%d %s" % (workload, trace, code,
                                                     "ok" if good else "FAILED"))
                if result is not None and names != want[trace]:
                    print("  missing:", sorted(want[trace] - names))
                    print("  undeclared:", sorted(names - want[trace]))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke-test", action="store_true")
    parser.add_argument("--binary")
    args = parser.parse_args()

    if args.smoke_test:
        return smoke_test(args.binary or build())
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "trace",
                                            "%s-%d" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
