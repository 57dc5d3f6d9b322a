"""The benchmark's own tests: output schema, a failing run on a wrong
expectation, and seed determinism. Each run uses the tiny --smoke sizes.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("check_corpus", "baseline_unroll", "daemon_edits", "ingest_sets")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, trace=0, *extra):
    """Runs one smoke-sized benchmark run; returns (exit code, stdout)."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0 and "--flip" not in extra:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def digests(stdout):
    return (re.search(r"input digest\s+(\w+)", stdout).group(1),
            re.search(r"verdict digest\s+(\w+)", stdout).group(1))


class Schema(unittest.TestCase):
    def check(self, trace, section):
        expected = {m["name"]: m["unit"] for m in spec()[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out = run(workload, 1, trace)
                self.assertEqual(code, 0, out)
                r = result(out)
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertIs(r["correct"], True)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                self.assertEqual(set(r["metrics"]), set(expected))
                for name, metric in r["metrics"].items():
                    self.assertEqual(metric["unit"], expected[name], name)
                    self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")

    def test_workloads_match_spec(self):
        self.assertEqual({w["name"] for w in spec()["workloads"]},
                         set(WORKLOADS))


class WrongExpectation(unittest.TestCase):
    def test_flipped_verdict_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out = run(workload, 1, 0, "--flip")
                self.assertNotEqual(code, 0, out)
                r = result(out)
                self.assertIs(r["correct"], False)
                self.assertGreaterEqual(r["failed"], 1)
                self.assertIn("FAILED ITEM", out)


class Determinism(unittest.TestCase):
    def test_same_seed_same_digests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = digests(run(workload, 5)[1])
                self.assertEqual(first, digests(run(workload, 5)[1]))
                self.assertNotEqual(first[0], digests(run(workload, 6)[1])[0])


if __name__ == "__main__":
    unittest.main()
