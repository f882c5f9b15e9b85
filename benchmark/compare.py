#!/usr/bin/env python3
"""Compare end-to-end metrics of two source trees, or of one tree with itself.

    # parent vs change: 10 alternating pairs on one workload
    python3 benchmark/compare.py --parent ../parent --change . \\
        --workload fj-fine --pairs 10

    # two sets of runs of one build: does the benchmark agree with itself?
    python3 benchmark/compare.py --repeat . --workload fj-fine --runs 5

Each run is `python3 benchmark/run.py ... --trace 0` inside a tree; pair
i gives both sides seed --seed + i, and which side runs first alternates
between pairs. The full results (with host shape and git sha) are read
from each tree's .bench_out/. Bounds come from the BENCHMARK.json of the
change (or repeated) tree.

For each metric the report gives each side's median and quartiles, the
spread (interquartile range over median), how many pairs the change won
and a verdict:
  improved    - the change won at least 9 of 10 pairs and the medians
                differ by more than the parent's interquartile range;
  regressed   - every change run is worse than every parent run by more
                than the parent's interquartile range, or the change's
                median is worse than the parent's by more than the
                metric's bound. The first test catches what a bound
                shared by all workloads cannot: a small, steady loss in
                a metric that barely varies (the simulated metrics of
                sim-numa32);
  unresolved  - the parent's spread exceeds the bound, so a regression
                of that size could not be seen (unless every change run
                beats every parent run);
  same        - none of the above.
--repeat reports, per metric, whether the two sets' medians agree within
the bound and whether each set's spread stays within it.

Runs whose host shape (host_cores, workers) differs are refused, as are
sides whose median effective_cpus differ by more than 25%, and --parent
and --change naming the same tree (run.py refuses a binary built from
another tree, so the two sides always time different binaries).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("fj-fine", "fj-numa", "serve-open", "sim-numa32")
# Largest relative gap between the sides' median effective_cpus.
MAX_EFF_DIFF = 0.25


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed in %s:\n%s" % (tree, proc.stderr[-2000:]))
    summary = json.loads(lines[-1])
    path = os.path.join(tree, ".bench_out",
                        "%s-%d-trace0.json" % (workload, seed))
    with open(path) as f:
        full = json.load(f)
    if not summary["correct"]:
        sys.exit("incorrect result in %s (seed %d): %d of %d checks failed"
                 % (tree, seed, summary["failed"], summary["attempted"]))
    return full


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_shapes(sides):
    shapes = {(r["host_cores"], r["workers"])
              for runs in sides.values() for r in runs}
    if len(shapes) != 1:
        sys.exit("refusing to compare runs of different host shapes: %s"
                 % sorted(shapes))
    eff = {name: statistics.median(r["effective_cpus"] for r in runs)
           for name, runs in sides.items()}
    lo, hi = min(eff.values()), max(eff.values())
    line = ", ".join("%s %.2f" % kv for kv in eff.items())
    if hi > lo * (1.0 + MAX_EFF_DIFF):
        sys.exit("refusing: median effective_cpus differ (%s)" % line)
    (cores, workers), = shapes
    print("host_cores %d, workers %d, effective_cpus %s" %
          (cores, workers, line))


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def load_bounds(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def collect(order, workload, seed, seconds, count, names):
    """Run the (name, tree) sides alternately, count times each, and
    print the metrics in @names as each run ends."""
    runs = {name: [] for name, _ in order}
    for i in range(count):
        sides = order if i % 2 == 0 else list(reversed(order))
        for name, tree in sides:
            r = run_once(tree, workload, seed + i, seconds)
            runs[name].append(r)
            print("  run %d %-7s %s" % (i, name, " ".join(
                "%s=%.5g" % (k, v["value"])
                for k, v in sorted(r["metrics"].items())
                if k in names)), flush=True)
    return runs


def compare(args):
    # run.py refuses a result from a binary built from another tree, so
    # distinct trees mean distinct binaries.
    if os.path.realpath(args.parent) == os.path.realpath(args.change):
        sys.exit("refusing: --parent and --change are the same tree; "
                 "use --repeat")
    metrics = load_bounds(args.change)
    order = [("parent", args.parent), ("change", args.change)]
    runs = collect(order, args.workload, args.seed, args.seconds, args.pairs,
                   {m["name"] for m in metrics})
    check_shapes(runs)
    print("\n%-14s %-28s %-28s %5s  %s" %
          ("metric", "parent med [q1, q3]", "change med [q1, q3]", "wins",
           "verdict"))
    bad = False
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if worse_by(a, b, better) < 0)
        spread = (pq3 - pq1) / pmed if pmed else 0.0
        worse = worse_by(pmed, cmed, better)
        # Gap between the best change run and the worst parent run,
        # positive when every change run is worse than every parent run.
        gap = (min(c) - max(p)) if better == "lower" else (min(p) - max(c))
        dominates = (max(c) < min(p)) if better == "lower" \
            else (min(c) > max(p))
        if wins >= 0.9 * len(p) and abs(cmed - pmed) > (pq3 - pq1):
            verdict = "improved"
        elif gap > 0 and gap > pq3 - pq1:
            verdict = ("regressed by %.2f%%: every change run is worse than "
                       "every parent run" % (100 * worse))
            bad = True
        elif spread > bound and not dominates:
            verdict = "unresolved (spread %.1f%% > bound %.1f%%)" % (
                100 * spread, 100 * bound)
        elif worse > bound:
            verdict = "regressed by %.1f%% (bound %.1f%%)" % (
                100 * worse, 100 * bound)
            bad = True
        else:
            verdict = "same (%+.1f%% worse, bound %.1f%%)" % (
                100 * worse, 100 * bound)
        print("%-14s %9.5g [%8.5g, %8.5g] %9.5g [%8.5g, %8.5g] %2d/%-2d  %s"
              % (name, pmed, pq1, pq3, cmed, cq1, cq3, wins, len(p),
                 verdict))
    return 1 if bad else 0


def repeat(args):
    metrics = load_bounds(args.repeat)
    order = [("A", args.repeat), ("B", args.repeat)]
    runs = collect(order, args.workload, args.seed, args.seconds, args.runs,
                   {m["name"] for m in metrics})
    check_shapes(runs)
    print("\n%-14s %10s %8s %10s %8s %8s  %s" %
          ("metric", "A median", "A sprd", "B median", "B sprd", "bound",
           "verdict"))
    bad = False
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        stats = {}
        for side in ("A", "B"):
            v = [r["metrics"][name]["value"] for r in runs[side]]
            q1, med, q3 = quartiles(v)
            stats[side] = (med, (q3 - q1) / med if med else 0.0)
        worse = abs(worse_by(stats["A"][0], stats["B"][0], better))
        ok = worse <= bound
        spread_ok = max(s[1] for s in stats.values()) <= bound
        bad |= not (ok and spread_ok)
        print("%-14s %10.5g %7.1f%% %10.5g %7.1f%% %7.1f%%  %s%s" %
              (name, stats["A"][0], 100 * stats["A"][1], stats["B"][0],
               100 * stats["B"][1], 100 * bound,
               "agree" if ok else "DISAGREE (%.1f%%)" % (100 * worse),
               "" if spread_ok else ", spread above bound"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    ap.add_argument("--parent", help="source tree of the parent commit")
    ap.add_argument("--change", help="source tree of the change")
    ap.add_argument("--repeat", metavar="TREE",
                    help="compare two sets of runs of one tree")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--runs", type=int, default=5,
                    help="runs per set with --repeat")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="as run_seconds in BENCHMARK.json")
    args = ap.parse_args()
    if args.repeat:
        sys.exit(repeat(args))
    if not (args.parent and args.change):
        ap.error("give --parent and --change, or --repeat")
    sys.exit(compare(args))


if __name__ == "__main__":
    main()
