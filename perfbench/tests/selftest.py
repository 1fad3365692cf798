#!/usr/bin/env python3
"""Tiny-size self-test of every perfbench workload.

Run from the root of the repository:

    python3 perfbench/tests/selftest.py

For each workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run prints every
per-layer metric, and that a deliberately wrong expected output
(`--inject-fault`) is counted as a failed op while the run still prints
every metric and exits 0.  It also checks that the runner fails without
a result line when only the benchmark's own files are present.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{proc.stderr}"
    return json.loads(lines[-1])


class SelfTest(unittest.TestCase):
    def check_metrics(self, result, catalogue, positive):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in catalogue])
        for m in catalogue:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if positive:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                proc = run(w["name"], 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.check_metrics(result, SPEC["end_to_end"], positive=True)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
            with self.subTest(workload=w["name"], trace=1):
                proc = run(w["name"], 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.check_metrics(result, SPEC["per_layer"], positive=False)
                self.assertTrue(result["correct"])

    def test_wrong_result_counts_as_failed(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], 0, "--inject-fault")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.check_metrics(result, SPEC["end_to_end"], positive=True)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["failed"], result["attempted"])

    def test_fails_without_the_repository(self):
        build_dir = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("target"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
