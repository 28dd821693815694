#!/usr/bin/env python3
"""Tiny-size test of the benchmark itself.

    python3 perfbench/test_bench.py

For every workload in BENCHMARK.json it makes one-second --tiny runs and
checks that the result line names exactly the metrics BENCHMARK.json
declares, each with its unit (untraced runs: the end-to-end set; traced
runs: the per-layer set), and that a clean run is correct with no failures.
It then injects a wrong expected state root and a wrong expected payout
into each workload and checks that each such run fails.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    def test_clean_runs_emit_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_injected_faults_fail_the_run(self):
        for workload in WORKLOADS:
            for fault in ("root", "payout"):
                with self.subTest(workload=workload, fault=fault):
                    code, result = run(workload, inject=fault)
                    self.assertNotEqual(code, 0)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
