#!/usr/bin/env python3
"""Per-layer self time from a numaws_bench trace.

A span's self time is its duration minus the durations of the spans
directly nested in it on the same thread. The layer is the span-name
prefix before the dot (runtime, job, mem, workloads, sim, bench).

    python3 benchmark/trace_summary.py .bench_out/trace-fj-fine-1.json

Prints one row per span name and one per layer, then the tracing
overhead the run measured (traced rounds' median over untraced rounds'
median, minus one).
"""
import argparse
import collections
import json
import sys


def summarize(trace):
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    child_us = collections.Counter()
    for e in spans:
        parent = e["args"]["parent"]
        if parent:
            child_us[parent] += e["dur"]
    by_name = collections.OrderedDict()
    for e in sorted(spans, key=lambda e: e["name"]):
        row = by_name.setdefault(e["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += e["dur"]
        row[2] += e["dur"] - child_us[e["args"]["id"]]
    return by_name


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome Trace Event JSON from --trace 1")
    args = ap.parse_args()
    with open(args.trace) as f:
        trace = json.load(f)
    by_name = summarize(trace)
    if not by_name:
        sys.exit("no spans in %s" % args.trace)

    meta = trace.get("otherData", {})
    print("trace of %s, seed %s, host_cores %s, effective_cpus %.2f"
          % (meta.get("workload"), meta.get("seed"), meta.get("host_cores"),
             meta.get("effective_cpus", 0.0)))
    print("\n%-20s %9s %12s %12s %12s" %
          ("span", "count", "total_ms", "self_ms", "self_us/call"))
    by_layer = collections.OrderedDict()
    for name, (count, total, self_us) in by_name.items():
        print("%-20s %9d %12.3f %12.3f %12.3f" %
              (name, count, total / 1e3, self_us / 1e3, self_us / count))
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_us
    all_self = sum(by_layer.values())
    print("\n%-20s %12s %8s" % ("layer", "self_ms", "share"))
    for layer, self_us in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("%-20s %12.3f %7.1f%%" %
              (layer, self_us / 1e3, 100.0 * self_us / all_self))
    if "trace_overhead_frac" in meta:
        print("\ntracing overhead: %+.1f%% (%s)" %
              (100.0 * meta["trace_overhead_frac"],
               meta.get("trace_overhead_basis", "")))


if __name__ == "__main__":
    main()
