#!/usr/bin/env python3
"""Build numaws_bench from source and run one workload.

    python3 benchmark/run.py --workload fj-fine --seed 1 --seconds 25 --trace 0

Run from the root of a source tree. The first run configures and builds
the benchmark (the library comes from the repository's own CMake
project) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs only rebuild what changed. A build directory outside the tree
gets a subdirectory per tree, one configured for another tree is
configured afresh, and a result from a binary built from another tree
is refused. Build output goes to stderr.

The binary's human-readable report goes to stdout, and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (measured by a run that records
spans into .bench_out/trace-<workload>-<seed>.json). The full result,
stamped with the host shape, seed and git sha, is kept in
.bench_out/<workload>-<seed>-trace<0|1>.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fj-fine", "fj-numa", "serve-open", "sim-numa32")
# The binary measures for --seconds, then reports; set-up and output
# checks add a few seconds on top.
RUN_SLACK_S = 150


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    """$CARGO_TARGET_DIR (relative to the tree root) or .bench_build. A
    directory outside this tree may serve other trees too, so there this
    tree builds in a subdirectory keyed by its own path."""
    base = os.path.realpath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    root = os.path.realpath(ROOT)
    if os.path.commonpath([base, root]) == root:
        return base
    key = hashlib.sha1(os.path.realpath(HERE).encode()).hexdigest()[:12]
    return os.path.join(base, "numaws_bench-" + key)


def configured_source(build_dir):
    """The source directory @build_dir was configured for, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configure (once per tree) and build numaws_bench; return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources at %s (expected CMakeLists.txt and src/ "
             "beside benchmark/)" % ROOT)
    bdir = build_dir()
    configured = configured_source(bdir)
    if configured is None or (os.path.realpath(configured)
                              != os.path.realpath(HERE)):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if configured is not None:
            # Configured for another tree (a copied or shared build
            # directory): start over rather than build that tree.
            cmd.append("--fresh")
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "--target",
                       "numaws_bench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "numaws_bench")


def git_sha():
    # Outside a git checkout git would search the parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-%d" % (args.workload, args.seed)
    result_path = os.path.join(out_dir, "%s-trace%d.json" % (stem, args.trace))
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
           "--json=" + result_path, "--git-sha=" + git_sha()]
    if args.trace:
        cmd.append("--trace=" + os.path.join(out_dir,
                                             "trace-%s.json" % stem))
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("numaws_bench did not finish in time")
    if proc.returncode != 0 or not os.path.exists(result_path):
        fail("numaws_bench exited with %d" % proc.returncode)
    with open(result_path) as f:
        result = json.load(f)
    if os.path.realpath(result["source_dir"]) != os.path.realpath(HERE):
        fail("numaws_bench was built from %s, not from this tree"
             % result["source_dir"])

    correct = bool(result["correct"])
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            print("run.py: metric %s missing" % m["name"], file=sys.stderr)
            correct = False
            continue
        if got["unit"] not in (m["unit"], "-"):
            print("run.py: metric %s in %s, BENCHMARK.json says %s"
                  % (m["name"], got["unit"], m["unit"]), file=sys.stderr)
            correct = False
        if not args.trace and not got["value"] > 0:
            print("run.py: end-to-end metric %s is %r"
                  % (m["name"], got["value"]), file=sys.stderr)
            correct = False
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
