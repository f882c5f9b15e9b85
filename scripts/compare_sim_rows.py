#!/usr/bin/env python3
"""Check that a change leaves a bench report's simulator rows untouched.

    compare_sim_rows.py PARENT.json CHANGE.json

Both files are bench-report JSON (a list of row objects, as every
``ablation_*`` binary writes with ``--json``). The simulator is
deterministic per seed, so a change that is meant to keep its behaviour
must reproduce every ``engine == "sim"`` row exactly. Rows are compared
as multisets, ignoring the provenance keys ``git_sha`` and
``host_cores``.

Rows present only on the parent side are listed (a change may delete a
row on purpose); rows present only on the change side are listed too
and make the exit status 1, since a new or altered sim row means sim
behaviour changed. Exit 2 on unreadable input.
"""
import collections
import json
import sys

IGNORED_KEYS = ("git_sha", "host_cores")


def sim_rows(path):
    with open(path) as f:
        rows = json.load(f)
    keyed = collections.Counter()
    for row in rows:
        if row.get("engine") != "sim":
            continue
        kept = {k: v for k, v in row.items() if k not in IGNORED_KEYS}
        keyed[json.dumps(kept, sort_keys=True)] += 1
    return keyed


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        parent, change = sim_rows(argv[1]), sim_rows(argv[2])
    except (OSError, ValueError) as e:
        print(f"compare_sim_rows: {e}", file=sys.stderr)
        return 2
    only_parent = parent - change
    only_change = change - parent
    for label, rows in (("parent only", only_parent),
                        ("change only", only_change)):
        for row, n in sorted(rows.items()):
            print(f"{label} (x{n}): {row}")
    matched = sum((parent & change).values())
    print(f"{argv[2]}: {matched} sim rows match, "
          f"{sum(only_parent.values())} parent-only, "
          f"{sum(only_change.values())} change-only")
    return 1 if only_change else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
