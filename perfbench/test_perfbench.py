#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload at a tiny size (--smoke) and checks that each metric
BENCHMARK.json names is printed with its unit, that a corrupted reference
makes the correctness gate fail, and that the benchmark refuses to run
without the program's sources. Builds into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) like run.py.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run_bench(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=1200)


def smoke_args(workload, trace, *extra):
    return ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
            "--smoke"] + list(extra)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench(smoke_args(workload, trace))
                    self.assertEqual(done.returncode, 0, done.stdout[-2000:] + done.stderr[-2000:])
                    lines = done.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    # Every percentile is printed with its sample count.
                    for name in expected:
                        if re.search(r"_p\d+_", name):
                            row = [l for l in lines if l.split(" ")[0] == name]
                            self.assertTrue(row and "(n=" in row[0], name)


class CorrectnessGateTest(unittest.TestCase):
    def test_corrupted_reference_fails_the_gate(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                done = run_bench(smoke_args(workload, 0, "--corrupt-reference"))
                self.assertNotEqual(done.returncode, 0)
                result = json.loads(done.stdout.splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)


class MissingSourcesTest(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        # Only BENCHMARK.json and the benchmark's own files: no src/ to build.
        scratch = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                               os.path.join(ROOT, ".bench_build"), "perfbench")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run([sys.executable, "perfbench/run.py"] +
                                  smoke_args("campaign", 0), cwd=bare, env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
