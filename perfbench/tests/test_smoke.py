"""Smoke test of the benchmark itself.

Runs the config's tiny `smoke` fleet through every workload, untraced and
traced, and checks that every metric BENCHMARK.json names is emitted with
its unit; that the traced counts repeat exactly for one seed; and that the
benchmark refuses to run without the repository's sources.

    python3 perfbench/tests/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# The first run builds both binaries.
TIMEOUT_S = 900
# Every workload perfbench implements; BENCHMARK.json gates a subset.
WORKLOADS = ["solo-recover", "wave", "mix"]
# Counts that must repeat exactly across runs of one seed.
EXACT = [
    "wire.bytes_per_op",
    "hsm.messages_per_op",
    "store.flushes_per_op",
    "p256.var_mults_per_op",
    "p256.msm_terms_per_op",
    "p256.msm_calls_per_op",
    "sha256.ops_per_op",
]


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=5, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result(done):
    return json.loads(done.stdout.splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        spec = bench()
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        for workload in WORKLOADS:
            for trace, section in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=workload, trace=trace):
                    done = run(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-4000:])
                    out = result(done)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    want = {m["name"]: m["unit"] for m in spec[section]}
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)

    def test_traced_counts_repeat_for_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b = run(workload, 1, seed=9), run(workload, 1, seed=9)
                self.assertEqual(a.returncode, 0, a.stderr[-4000:])
                self.assertEqual(b.returncode, 0, b.stderr[-4000:])
                ma, mb = result(a)["metrics"], result(b)["metrics"]
                for name in EXACT:
                    self.assertEqual(ma[name]["value"], mb[name]["value"], name)

    def test_refuses_without_the_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "target"))
            done = run("wave", 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
