#!/usr/bin/env python3
"""Runs one workload of the PNB-BST stack benchmark.

    python3 perfbench/run.py --workload point_large --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (its own CMake package) into .bench_build/perfbench, or
into $CARGO_TARGET_DIR/perfbench when that is set. Each run is one fresh
process, because the reclaimer and arena domains are process-wide.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json;
--trace 1 is the separate traced run that prints the per-layer metrics,
the layer ladder, the tracing overhead, and writes the spans it kept to
<build dir>/trace/<workload>-seed<seed>.json.

Output: a detail line (the full record: extra metrics, sample counts,
checks, calibration), then, as the last line, one JSON object with
exactly the keys correct, attempted, failed and metrics. Exits 0 only when
every correctness check passed; 2 on a usage or build error.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # a run must end within 180 s; keep a margin
BUILD_LIMIT_S = 840


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out, env):
    """Configures (once) and builds the harness; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=max(left, 1))
        except (OSError, subprocess.TimeoutExpired) as e:
            die("build step failed: %s: %s" % (" ".join(cmd), e))
        if done.returncode != 0:
            die("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)
    if not os.path.exists(os.path.join(ROOT, "src", "core", "pnb_bst.h")):
        die("program sources not found under src/; run from a full checkout")

    out = build_dir()
    # Compiler and harness temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(out, env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace", "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_LIMIT_S, 1)
    sys.stderr.write(proc.stderr)
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        die("harness exited %d without a result" % proc.returncode, 1)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = record.pop("metrics")
    metrics, problems = {}, []
    for m in wanted:
        v = got.pop(m["name"], None)
        if v is None:
            problems.append("metric %s not measured" % m["name"])
        elif v["unit"] != m["unit"]:
            problems.append("metric %s in %s, expected %s"
                            % (m["name"], v["unit"], m["unit"]))
        else:
            metrics[m["name"]] = v
    record["detail"]["other_metrics"] = got
    record["detail"]["calibration"]["git_commit"] = git_commit()
    record["checks_failed"] += problems
    correct = (record["correct"] and not problems and proc.returncode == 0)

    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
