#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the program it measures).

    python3 perfbench/test_perfbench.py

Builds the harness through run.py on first use, then checks that:
  - a short run of each workload prints every metric BENCHMARK.json names,
    with its unit, in both the timed and the traced mode;
  - a deliberately wrong expected census fails the run;
  - two runs with the same --seed issue the same op-stream prefix, and a
    different seed a different one;
  - in a directory holding only BENCHMARK.json and perfbench/ the
    benchmark exits non-zero without printing a result.
Takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_py(workload, seed=1, seconds=1, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def harness(*args):
    """Runs the built harness binary directly; returns (exit code, record)."""
    binary = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                          or ".bench_build", "perfbench", "perfbench")
    proc = subprocess.run([binary] + list(args), capture_output=True,
                          text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds the harness (and proves the smallest workload runs).
        proc = run_py("served_small")
        assert proc.returncode == 0, proc.stderr[-4000:]

    def check_result(self, proc, wanted):
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_printed_with_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                self.check_result(run_py(w), SPEC["end_to_end"])
            with self.subTest(workload=w, trace=1):
                self.check_result(run_py(w, trace=1), SPEC["per_layer"])

    def test_wrong_census_fails(self):
        for w in ("served_small", "scan_mixed"):
            with self.subTest(workload=w):
                code, record = harness("--workload", w, "--seed", "5",
                                       "--seconds", "1", "--census-bias", "1")
                self.assertNotEqual(code, 0)
                self.assertFalse(record["correct"])
                self.assertTrue(any(c.startswith("census")
                                    for c in record["checks_failed"]))

    def test_same_seed_same_op_prefix(self):
        for w in ("served_small", "point_large"):
            with self.subTest(workload=w):
                args = ["--workload", w, "--seconds", "1"]
                hashes = [harness(*args, "--seed", s)[1]["detail"]
                          ["op_prefix_hash"] for s in ("7", "7", "8")]
                self.assertEqual(hashes[0], hashes[1])
                self.assertNotEqual(hashes[0], hashes[2])

    def test_fails_without_program_sources(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
