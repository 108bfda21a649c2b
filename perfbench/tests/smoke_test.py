#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, twice each at one
seed, and asserts that:
  * every metric BENCHMARK.json declares is printed, with its unit, and no
    other metric is;
  * every output check passes and no operation fails;
  * the count metrics and the serve response digest repeat exactly.

Run from anywhere inside a full checkout:

    python3 perfbench/tests/smoke_test.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 7


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace):
    """One tiny run: (result object, {env key: value})."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n"
                             f"{done.stdout}\n{done.stderr[-4000:]}")
    lines = done.stdout.splitlines()
    env = {}
    for line in lines:
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[0] == "env":
            env[parts[1]] = parts[2]
    return json.loads(lines[-1]), env, done.stdout


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check_result(self, result, declared, output):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], output)
        self.assertEqual(result["failed"], 0, output)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(declared), output)
        for name, metric in declared.items():
            self.assertEqual(result["metrics"][name]["unit"], metric["unit"], name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)
            self.assertRegex(output, rf"(?m)^metric {re.escape(name)} +\S+ +{re.escape(metric['unit'])}\b")

    def check_workload(self, workload):
        end_to_end = {m["name"]: m for m in self.spec["end_to_end"]}
        per_layer = {m["name"]: m for m in self.spec["per_layer"]}
        counts = [name for name, m in per_layer.items() if m["unit"] == "count"]

        untraced = [run(workload, 0) for _ in range(2)]
        for result, env, output in untraced:
            self.check_result(result, end_to_end, output)
            for name in end_to_end:
                self.assertGreater(result["metrics"][name]["value"], 0, name)
        self.assertEqual(untraced[0][1]["serve.response_digest"],
                         untraced[1][1]["serve.response_digest"])

        traced = [run(workload, 1) for _ in range(2)]
        for result, _, output in traced:
            self.check_result(result, per_layer, output)
        for name in counts:
            self.assertEqual(traced[0][0]["metrics"][name]["value"],
                             traced[1][0]["metrics"][name]["value"], name)
        self.assertEqual(traced[0][1]["serve.response_digest"],
                         untraced[0][1]["serve.response_digest"])

    def test_serve(self):
        self.check_workload("serve")

    def test_ingest(self):
        self.check_workload("ingest")

    def test_build(self):
        self.check_workload("build")

    def test_spec_names_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         ["serve", "ingest", "build"])


if __name__ == "__main__":
    unittest.main()
