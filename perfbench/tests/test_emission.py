#!/usr/bin/env python3
"""End-to-end checks of the benchmark's output contract.

Runs the C++ self-test (streams, span recorder, metric names), then
every workload once with --trace 0 and once with --trace 1 and checks
that the result line carries every metric BENCHMARK.json names, that
names are well formed, that every run passes its output check, and
that the traced run's layer replay reproduces the engine.

    python3 perfbench/tests/test_emission.py            # all workloads
    python3 perfbench/tests/test_emission.py skewed-hot # a subset

Takes a few minutes: each run generates its input and serves it.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# sparse-1m is runnable but not in BENCHMARK.json (see README.md).
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["sparse-1m"]


def run(*args):
    done = subprocess.run(["python3", "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    return done


class Contract(unittest.TestCase):
    def test_selftest(self):
        done = run("--selftest")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def check_result(self, workload, trace):
        done = run("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], lines[-2])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            name = metric["name"]
            self.assertRegex(name, NAME)
            got = result["metrics"][name]
            self.assertEqual(got["unit"], metric["unit"], name)
            self.assertIsInstance(got["value"], (int, float), name)
            if not trace:
                self.assertGreater(got["value"], 0, name)
        detail = json.loads(lines[-2])["detail"]
        for key in ("nproc", "build_type", "compiler", "git_rev", "seed",
                    "offered_rate_req_s", "latency_samples", "failed_frac"):
            self.assertIn(key, detail)
        if trace:
            self.assertEqual(
                result["metrics"]["trace.replay_verified"]["value"], 1)

    def test_workloads(self):
        selected = sys.argv[1:] or WORKLOADS
        for workload in selected:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_result(workload, trace)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1])
