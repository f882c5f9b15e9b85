#!/usr/bin/env python3
"""Perf trajectory over bench-report artifacts: report and gate modes.

Report mode (the PR 3 behavior) prints old/new ratios between two
bench-report directories::

    bench_trajectory.py PREV_DIR NEW_DIR [file.json ...]

Rows are grouped by their identity key (workload + policy/knob columns,
engine, cores/workers) and averaged over seeds; for each group present
in both runs the script prints elapsed-time and counter ratios
(new/old), plus the provenance (host_cores, git_sha) of both sides so a
ratio from a differently-sized runner is never mistaken for a
regression. Purely informational: always exits 0 when inputs parse.

Gate mode (PR 4) turns the accumulated trajectory into a CI gate::

    bench_trajectory.py --gate HIST_IN HIST_OUT NEW_DIR [file.json ...]
                        [--override]

HIST_IN is the rolling history file carried inside the
``bench-reports-threaded`` artifact (missing on the first run: empty
history); the current run's per-group means are appended and written to
HIST_OUT even when the gate fails. Note the CI consumption model: the
next run downloads the artifact of the previous *successful* main run,
so an entry written by a run that ultimately fails (this gate or any
other job step) is uploaded but never consulted — history effectively
accumulates over successful main runs only, and the trailing window
thins by one for every failed run in between. A group FAILS when, among the trailing history entries with
the *same host_cores shape* (runner-size changes must never read as
regressions), at least GATE_MIN_RUNS runs contain the group and the new
elapsed_s exceeds the trailing mean by more than the report's
tolerance (GATE_TOLERANCE, widened per report in
GATE_TOLERANCE_BY_REPORT for microsecond-scale benches). With
fewer runs of history the group only reports. ``--override`` (CI sets
it from the ``perf-override`` PR label) demotes failures to warnings
for intentional perf shifts; exit is then 0 and history still records
the new level, so the next run gates against it.
"""

import json
import os
import sys

# Fields that identify a row (everything else is a measurement).
KEY_FIELDS = (
    "engine",
    "workload",
    "policy",
    "victims",
    "escalation",
    "park",
    "push",
    "pool",
    "mailbox",
    "cores",
    "workers",
    "spawns_per_sync",
    # Serving rows: arrival-rate class and job mix identify the row;
    # the actual rate is a calibrated measurement, not an identity.
    "mix",
    "rate",
    "arrivals",
    "elastic",
    # Overload rows: the shed policy and the deadline'd fraction of the
    # arrival stream identify the scenario.
    "shed",
    "deadline_frac",
    # Preemption rows: the scenario name plus which knobs are on.
    # (aging_us itself is a measurement: the threaded step is
    # calibrated from the host's mean job time each run.)
    "scenario",
    "preempt",
    "aging",
    "unpark_pct",
    # Data-plane rows: which allocator backs numa::allocate and which
    # container holds the grid identify the row.
    "heap",
    "container",
    # Interference rows: the adaptation knob, the trace shape (sim),
    # and the co-runner count (threaded) identify the row.
    "interference",
    "trace",
    "corunners",
)
# Measurements worth a trajectory line, in print order.
METRICS = (
    "elapsed_s",
    "spawn_ns",
    "steal_attempts",
    "spurious_wakeups",
    "wakeups",
    "push_attempts",
    "p99_us",
    "goodput",
    "shed_frac",
    "queue_p99_us",
    "alloc_ns",
)

# Gate-mode knobs: >10% over the trailing mean of the last window fails
# once >= GATE_MIN_RUNS comparable runs exist for the host_cores shape.
GATE_METRIC = "elapsed_s"
GATE_TOLERANCE = 0.10
GATE_MIN_RUNS = 3
GATE_WINDOW = 5
HISTORY_MAX_RUNS = 20
# Per-report tolerance overrides. The spawn-overhead rows are
# microsecond-scale (min-rep) timings on a shared runner — hostile
# territory for a 10% gate even with the noise-robust statistic — so
# they gate at a width that still catches the failure mode that
# matters (losing the pool fast path is a >=25% shift) while
# run-to-run frequency/cache variance reports instead of flapping.
GATE_TOLERANCE_BY_REPORT = {
    "BENCH_spawn.json": 0.25,
    # Open-loop serving rows: elapsed is dominated by the arrival
    # schedule (rate is re-calibrated per run from measured job cost),
    # so run-to-run variance is wider than the closed-loop benches'.
    "BENCH_serving.json": 0.25,
    # Overload rows run the runtime deliberately past saturation, where
    # elapsed is hostage to the shed controller's EWMA transient and the
    # host's scheduling jitter; the bench's own gates already bound the
    # ratios that matter (latency protection, goodput, collapse).
    "BENCH_overload.json": 0.25,
    # Preemption rows share the overload rows' saturation methodology
    # (open-loop streams at calibrated rates); the bench's own gates
    # bound the latency/aging/unpark properties byte-deterministically
    # in the sim.
    "BENCH_preempt.json": 0.25,
    # Data-plane rows mix a nanosecond-scale alloc microbench with
    # millisecond heat sweeps on a 2-core runner; the bench's own gates
    # (pooled-vs-heap ratio, parted-vs-flat floor, bit-exactness) bound
    # the properties that matter, so the trajectory gates wide like the
    # other micro-scale reports.
    "BENCH_dataplane.json": 0.25,
    # Interference rows deliberately run with pinned busy-loop
    # co-runners stealing CPU — elapsed is exactly the quantity the
    # host scheduler perturbs; the bench's own gates bound the
    # adapt-vs-off ratios (strictly, byte-deterministically, in the
    # sim rows).
    "BENCH_interference.json": 0.25,
}


def tolerance_for(label):
    """Gate tolerance for a history label ("report.json::group")."""
    return GATE_TOLERANCE_BY_REPORT.get(label.split("::", 1)[0],
                                        GATE_TOLERANCE)


def load_rows(path):
    with open(path) as f:
        return json.load(f)


def key_of(row):
    return tuple((k, row[k]) for k in KEY_FIELDS if k in row)


def aggregate(rows):
    """Group rows by identity and average numeric metrics over seeds."""
    groups = {}
    for row in rows:
        groups.setdefault(key_of(row), []).append(row)
    out = {}
    for key, members in groups.items():
        means = {}
        for metric in METRICS:
            values = [
                float(m[metric]) for m in members if metric in m
            ]
            if values:
                means[metric] = sum(values) / len(values)
        means["_provenance"] = "%s cores @ %.9s" % (
            members[0].get("host_cores", "?"),
            str(members[0].get("git_sha", "?")),
        )
        out[key] = means
    return out


def report_files(new_dir, names):
    return names or sorted(
        n for n in os.listdir(new_dir) if n.endswith(".json")
        if n != "trajectory_history.json"
    )


def run_report(prev_dir, new_dir, names):
    names = report_files(new_dir, names)
    if not os.path.isdir(prev_dir):
        print(
            "bench_trajectory: no previous artifact at %r "
            "(first run?) — nothing to compare" % prev_dir
        )
        return 0

    for name in names:
        prev_path = os.path.join(prev_dir, name)
        new_path = os.path.join(new_dir, name)
        if not os.path.exists(new_path):
            continue
        if not os.path.exists(prev_path):
            print("== %s: new report (no previous run) ==" % name)
            continue
        old = aggregate(load_rows(prev_path))
        new = aggregate(load_rows(new_path))
        print("== %s ==" % name)
        shared = [k for k in new if k in old]
        if not shared:
            print("  no comparable rows (schema changed?)")
            continue
        sample = old[shared[0]]["_provenance"], new[shared[0]][
            "_provenance"
        ]
        print("  old: %s   new: %s" % sample)
        for key in shared:
            label = "/".join(str(v) for _, v in key)
            ratios = []
            for metric in METRICS:
                if metric in old[key] and metric in new[key]:
                    denom = old[key][metric]
                    if denom > 0:
                        ratios.append(
                            "%s %.3fx"
                            % (metric, new[key][metric] / denom)
                        )
            if ratios:
                print("  %-60s %s" % (label, "  ".join(ratios)))
        only_new = [k for k in new if k not in old]
        if only_new:
            print("  (+%d new row groups)" % len(only_new))
    return 0


def group_label(name, key):
    return "%s::%s" % (name, "/".join(str(v) for _, v in key))


def current_run_entry(new_dir, names):
    """One history entry for this run: per-group metric means."""
    entry = {"host_cores": None, "git_sha": None, "groups": {}}
    for name in report_files(new_dir, names):
        path = os.path.join(new_dir, name)
        if not os.path.exists(path):
            continue
        rows = load_rows(path)
        if rows and entry["host_cores"] is None:
            entry["host_cores"] = rows[0].get("host_cores")
            entry["git_sha"] = rows[0].get("git_sha")
        for key, means in aggregate(rows).items():
            entry["groups"][group_label(name, key)] = {
                m: v for m, v in means.items() if m in METRICS
            }
    return entry


def run_gate(hist_in, hist_out, new_dir, names, override):
    history = {"runs": []}
    if os.path.exists(hist_in):
        try:
            history = json.load(open(hist_in))
        except (ValueError, OSError) as e:
            print("bench_trajectory: unreadable history %r (%s) — "
                  "starting fresh" % (hist_in, e))
    runs = history.get("runs", [])
    entry = current_run_entry(new_dir, names)
    if not entry["groups"]:
        # A perf gate with nothing to measure must fail loudly, not go
        # green with zero coverage (and must not pollute the history
        # with a null entry).
        print(
            "::error::perf gate: no bench rows found under %r — "
            "nothing was measured" % new_dir
        )
        return 1

    failures = []
    comparable = [
        r for r in runs if r.get("host_cores") == entry["host_cores"]
    ]
    for label, means in sorted(entry["groups"].items()):
        if GATE_METRIC not in means:
            continue
        trail = [
            r["groups"][label][GATE_METRIC]
            for r in comparable[-GATE_WINDOW:]
            if label in r.get("groups", {})
            and GATE_METRIC in r["groups"][label]
        ]
        if len(trail) < GATE_MIN_RUNS:
            print(
                "  %-70s %d/%d runs of history — reporting only"
                % (label, len(trail), GATE_MIN_RUNS)
            )
            continue
        mean = sum(trail) / len(trail)
        ratio = means[GATE_METRIC] / mean if mean > 0 else 1.0
        allowed = tolerance_for(label)
        verdict = "ok"
        if ratio > 1.0 + allowed:
            verdict = "REGRESSION"
            failures.append((label, ratio, allowed))
        print(
            "  %-70s %.3fx vs trailing mean of %d runs  %s"
            % (label, ratio, len(trail), verdict)
        )

    # Record this run either way: an overridden shift becomes the new
    # baseline instead of re-failing every subsequent run.
    runs.append(entry)
    history["runs"] = runs[-HISTORY_MAX_RUNS:]
    with open(hist_out, "w") as f:
        json.dump(history, f, indent=1)
    print(
        "bench_trajectory: history now %d runs (%d on this "
        "host_cores shape) -> %s"
        % (len(history["runs"]), len(comparable) + 1, hist_out)
    )

    if failures:
        for label, ratio, allowed in failures:
            print(
                "::%s::perf gate: %s at %.3fx (> %.2fx allowed)"
                % (
                    "warning" if override else "error",
                    label,
                    ratio,
                    1.0 + allowed,
                )
            )
        if override:
            print("bench_trajectory: perf-override set — regressions "
                  "recorded as the new baseline, not failed")
            return 0
        return 1
    return 0


def main(argv):
    args = [a for a in argv[1:] if a != "--override"]
    override = "--override" in argv[1:]
    if args and args[0] == "--gate":
        if len(args) < 4:
            print(__doc__)
            return 2
        return run_gate(args[1], args[2], args[3], args[4:], override)
    if len(args) < 2:
        print(__doc__)
        return 2
    return run_report(args[0], args[1], args[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
