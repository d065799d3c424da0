#!/usr/bin/env python3
"""Compare a fresh ftss bench --json run against committed BENCH_*.json baselines.

Usage:
  compare_bench.py [--tolerance 0.30] BASELINE.json FRESH.json
  compare_bench.py [--tolerance 0.30] --baseline-dir . --fresh-dir bench-fresh
  compare_bench.py --structural --baseline-dir . --fresh-dir bench-fresh

--structural skips the (noisy, runner-dependent) perf deltas and checks only
that everything the baseline promises still exists: bench files, counters,
and — with --all-benchmarks — individual benchmarks.  CI runs the perf
compare non-blocking and the structural check as a real gate.

Directory mode pairs files by name: every BENCH_*.json in --baseline-dir is
compared against the file of the same name in --fresh-dir (missing fresh
files are reported and skipped — CI smoke runs only a benchmark subset).

For every benchmark present in both files, relative deltas are reported for
cpu_ns_per_iter and any extra counters (e.g. allocs_per_round).  A benchmark
regresses when fresh > baseline * (1 + tolerance) on cpu_ns_per_iter or on
an alloc counter; timing improvements never fail.
Anything present only in the candidate — a whole bench file, a benchmark, or
a counter on an existing benchmark (e.g. newly added latency percentiles) —
is reported as "new" and never diffed against nothing.  Baseline-only
entries are reported symmetrically as "removed", and two kinds of removal
fail the run outright because no --benchmark_filter subset can explain
them: a baseline bench FILE with no fresh counterpart (the bench binary
stopped running or crashed before writing JSON), and a baseline COUNTER
missing from a benchmark the candidate did run.  Benchmarks present only
in the baseline are informational by default (CI smoke legitimately runs
filtered subsets); pass --all-benchmarks for full runs (e.g. the nightly
grid) to make those removals fail too.  Counters whose name
marks them as wall-clock (.._ns, .._ns_p50/p99) get the wide time tolerance;
the tight counter tolerance is reserved for deterministic work counters.
Each compared file pair prints both documents' "context" (the host and
build the bench ran on: nproc, compiler, build type, AVX2, and the git sha
built).  When the two differ in anything but the git sha, or a side
predates the context block, every timing row is tagged "cross-host": its
delta mixes machines, so read it as a hint, not a measurement.  A fresh
run is always of another commit than its baseline, so the sha alone never
makes a row cross-host.  The tag changes no verdict, tolerance or exit
code, and --structural ignores the context altogether.
Exit status is 1 if any regression or hard removal was found, else 0.  CI
wires the perf deltas in as a non-blocking report (shared runners are
noisy, so a red compare is a prompt to look at the numbers, not a merge
gate), while the removal checks gate the smoke job for real.
"""

import argparse
import glob
import json
import os
import sys

# Counters that measure work done (not wall time) and should be compared
# tightly: they are deterministic per build, so even a small growth is real.
COUNTER_TOLERANCE = 0.05


def is_wall_clock_counter(name):
    """Nanosecond-valued counters (latency percentiles etc.) are as noisy as
    the timings themselves and get the time tolerance, not the tight one."""
    return name.endswith("_ns") or "_ns_" in name


def is_rate_counter(name):
    """Rates derived from the timing (higher = better) are redundant with
    cpu_ns_per_iter and would mis-diff under a growth-is-bad rule — so they
    are never diffed AND never treated as added/removed coverage.  Both
    spellings are recognized: the old truncated-integer NAME_per_second and
    the fixed-point NAME_per_second_milli that replaced it (the integer
    emission collapsed sub-1/s rates to 0), so baselines from either side
    of that re-baseline compare cleanly against the other."""
    return name.endswith("_per_second") or name.endswith("_per_second_milli")


def is_timing(metric):
    """Rows whose value is wall or CPU time, and so depends on the host."""
    return metric == "cpu_ns_per_iter" or is_wall_clock_counter(metric)


def load(path):
    """The document's timings by benchmark name, and its host context (None
    for documents written before benches recorded one)."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "ftss-bench-v1":
        raise SystemExit(f"{path}: unsupported schema {data.get('schema')!r}")
    timings = {t["name"]: t for t in data.get("timings", [])}
    return timings, data.get("context")


def host_of(context):
    """The context without git_sha: the commit built is not part of the host."""
    if context is None:
        return None
    return {k: v for k, v in context.items() if k != "git_sha"}


def describe_context(context):
    if context is None:
        return "(none recorded)"
    return ", ".join(f"{k}={json.dumps(v)}" for k, v in sorted(context.items()))


def compare_metric(name, metric, base, fresh, tolerance, rows):
    if base is None or fresh is None or base <= 0:
        return False
    delta = (fresh - base) / base
    regressed = delta > tolerance
    rows.append((name, metric, base, fresh, delta, regressed))
    return regressed


def compare_files(baseline_path, fresh_path, tolerance, all_benchmarks=False,
                  structural=False):
    baseline, baseline_context = load(baseline_path)
    fresh, fresh_context = load(fresh_path)
    cross_host = (baseline_context is None
                  or host_of(baseline_context) != host_of(fresh_context))
    rows = []
    new_counters = []
    removed_counters = []
    regressed = False
    skip = {"cpu_ns_per_iter", "real_ns_per_iter", "iterations", "name"}

    def diffable(names):
        return {n for n in names if n not in skip and not is_rate_counter(n)}

    for name, b in sorted(baseline.items()):
        f = fresh.get(name)
        if f is None:
            continue  # smoke runs exercise a filtered subset
        if not structural:
            regressed |= compare_metric(name, "cpu_ns_per_iter",
                                        b.get("cpu_ns_per_iter"),
                                        f.get("cpu_ns_per_iter"),
                                        tolerance, rows)
            for counter in sorted(diffable(b) & diffable(f)):
                if isinstance(b[counter], (int, float)):
                    counter_tol = (tolerance
                                   if is_wall_clock_counter(counter)
                                   else COUNTER_TOLERANCE)
                    regressed |= compare_metric(name, counter, b[counter],
                                                f[counter], counter_tol, rows)
            # Candidate-only counters have no baseline to diff against:
            # report, never fail (they become comparable once the baseline
            # regenerates).
            for counter in sorted(diffable(f) - diffable(b)):
                if isinstance(f[counter], (int, float)):
                    new_counters.append((name, counter, f[counter]))
        # Baseline-only counters on a benchmark the candidate DID run can't
        # be a filter artifact: the instrumentation stopped reporting.  Hard
        # failure — a silently vanished counter reads as "no regression".
        for counter in sorted(diffable(b) - diffable(f)):
            if isinstance(b[counter], (int, float)):
                removed_counters.append((name, counter, b[counter]))
                regressed = True
    only_fresh = sorted(set(fresh) - set(baseline))
    only_base = sorted(set(baseline) - set(fresh))
    if all_benchmarks and only_base:
        regressed = True

    if structural:
        print(f"\n== {os.path.basename(baseline_path)} (structural)")
        if not removed_counters and not (all_benchmarks and only_base):
            print("  baseline coverage intact")
    else:
        print(f"\n== {os.path.basename(baseline_path)} "
              f"(tolerance {tolerance:.0%} time, "
              f"{COUNTER_TOLERANCE:.0%} counters)")
        print(f"  baseline context: {describe_context(baseline_context)}")
        print(f"  fresh context:    {describe_context(fresh_context)}")
        if not rows:
            print("  no overlapping benchmarks")
    width = max((len(r[0]) for r in rows), default=0)
    for name, metric, base, fr, delta, bad in rows:
        flag = "REGRESSED" if bad else ("improved" if delta < -0.05 else "ok")
        if cross_host and is_timing(metric):
            flag += " cross-host"
        print(f"  {name:<{width}}  {metric:<18} {base:>14.6g} -> {fr:>14.6g} "
              f"({delta:+7.1%})  {flag}")
    for name, counter, value in new_counters:
        print(f"  {name}: new counter {counter} = {value:g} (no baseline)")
    for name, counter, value in removed_counters:
        print(f"  {name}: REMOVED counter {counter} (baseline had {value:g}, "
              f"candidate reports nothing)")
    for name in only_fresh:
        print(f"  {name}: new benchmark (no baseline)")
    for name in only_base:
        if all_benchmarks:
            print(f"  {name}: REMOVED benchmark (in baseline, not run by "
                  f"candidate; --all-benchmarks promised a full run)")
        else:
            print(f"  {name}: removed/filtered benchmark (in baseline, "
                  f"not in this run)")
    return regressed


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", help="BASELINE.json FRESH.json")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed relative cpu-time growth (default 0.30)")
    ap.add_argument("--baseline-dir", help="directory of committed BENCH_*.json")
    ap.add_argument("--fresh-dir", help="directory of freshly generated BENCH_*.json")
    ap.add_argument("--all-benchmarks", action="store_true",
                    help="this run used no --benchmark_filter, so a "
                         "baseline-only benchmark is a removal, not a subset")
    ap.add_argument("--structural", action="store_true",
                    help="check baseline coverage only (files/counters/"
                         "benchmarks still present); skip perf deltas")
    args = ap.parse_args()

    pairs = []
    removed_files = []
    if args.baseline_dir or args.fresh_dir:
        if not (args.baseline_dir and args.fresh_dir):
            ap.error("--baseline-dir and --fresh-dir go together")
        baselines = sorted(glob.glob(os.path.join(args.baseline_dir,
                                                  "BENCH_*.json")))
        for base in baselines:
            fresh = os.path.join(args.fresh_dir, os.path.basename(base))
            if os.path.exists(fresh):
                pairs.append((base, fresh))
            else:
                # Every CI invocation runs all bench binaries (filters trim
                # benchmarks, never whole files), so a missing fresh file
                # means a bench stopped running or died before writing JSON.
                removed_files.append(os.path.basename(base))
                print(f"REMOVED: no fresh run for {os.path.basename(base)} "
                      f"(bench binary stopped running or crashed)")
        known = {os.path.basename(b) for b in baselines}
        for fresh in sorted(glob.glob(os.path.join(args.fresh_dir,
                                                   "BENCH_*.json"))):
            if os.path.basename(fresh) not in known:
                print(f"note: {os.path.basename(fresh)} is new "
                      f"(no committed baseline)")
    elif len(args.files) == 2:
        pairs.append((args.files[0], args.files[1]))
    else:
        ap.error("pass BASELINE.json FRESH.json, or --baseline-dir/--fresh-dir")

    regressed = bool(removed_files)
    for base, fresh in pairs:
        regressed |= compare_files(base, fresh, args.tolerance,
                                   args.all_benchmarks, args.structural)
    if regressed:
        print("\nregression: perf beyond tolerance or baseline coverage "
              "removed (see REGRESSED/REMOVED rows)")
        return 1
    print("\nno regressions beyond tolerance, baseline coverage intact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
