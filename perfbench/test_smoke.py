#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_smoke.py

They build the benchmark and run every workload once in smoke mode —
one pass, every output check on, traced and untraced — so a build or
run failure surfaces before a full benchmark run does.
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


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        done = bench("--smoke")
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        for workload in ("table1", "certify", "serve"):
            for trace in (0, 1):
                self.assertIn("smoke %s trace=%d ok" % (workload, trace),
                              done.stdout)

    def test_result_line_names_every_declared_metric(self):
        done = bench("--workload", "certify", "--seed", "7", "--smoke")
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "table1",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
