#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

    python3 perfbench/test_run.py

Runs every workload at toy length (--smoke) in both modes and validates the
output schema against BENCHMARK.json, feeds the correctness checks broken
results to show that each one fires, and confirms that the benchmark fails
cleanly where the simulator sources are missing. Builds into
$CARGO_TARGET_DIR (default .bench_build) like run.py.
"""

import importlib.util
import json
import numbers
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def invoke(*args):
    return subprocess.run([sys.executable, RUN, *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


class Schema(unittest.TestCase):
    def check_summary(self, line, expected):
        out = json.loads(line)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(out["correct"], True)
        self.assertIsInstance(out["attempted"], int)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(set(out["metrics"]), set(expected))
        for name, m in out["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], expected[name], name)
            self.assertIsInstance(m["value"], numbers.Real, name)
            self.assertNotIsInstance(m["value"], bool, name)
        return out

    def test_every_workload_both_modes(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.WORKLOADS))
        e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for w in run.WORKLOADS:
            for trace, expected in ((0, e2e), (1, layers)):
                with self.subTest(workload=w, trace=trace):
                    p = invoke("--workload", w, "--seed", 3, "--seconds", 0.1,
                               "--trace", trace, "--smoke")
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    lines = p.stdout.strip().splitlines()
                    report = json.loads(lines[-2])
                    out = self.check_summary(lines[-1], expected)
                    for key in ("hardware_concurrency", "build_type", "commit",
                                "source_sha256", "params"):
                        self.assertIn(key, report)
                    self.assertEqual(report["seed"], 3)
                    self.assertTrue(all(report["checks"].values()), report["checks"])
                    for name, s in report["metrics"].items():
                        self.assertLessEqual(s["q1"], s["median"], name)
                        self.assertLessEqual(s["median"], s["q3"], name)
                    if trace == 0:
                        for name, m in out["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


def fake_run(checksum="00ab", completed=100, dropped=0, issued=100):
    return {"checksum": checksum, "completed": completed, "dropped": dropped,
            "issued": issued}


def fake_trace(**over):
    t = {**fake_run(), "trace_dropped": 0, "adapt_replay_exact": True,
         "layers": {"harness.self_share": 0.2}}
    t.update(over)
    return t


class Checks(unittest.TestCase):
    def test_end_to_end_checks_fire(self):
        good = [fake_run(), fake_run("00cd")]
        self.assertTrue(all(run.end_to_end_checks(good, fake_run()).values()))
        checks = run.end_to_end_checks(good, fake_run("ffff"))
        self.assertFalse(checks["repeat_checksum_identical"])
        checks = run.end_to_end_checks([fake_run(completed=99)], fake_run())
        self.assertFalse(checks["settled_equals_issued"])

    def test_layer_checks_fire(self):
        pair = (fake_run(), fake_trace())
        self.assertTrue(all(run.layer_checks([pair], adapts=True).values()))
        broken = {
            "traced_equals_untraced": fake_trace(checksum="ffff"),
            "trace_dropped_zero": fake_trace(trace_dropped=7),
            "coverage": fake_trace(layers={"harness.self_share": -0.3}),
            "adapt_replay_exact": fake_trace(adapt_replay_exact=False),
            "settled_equals_issued": fake_trace(completed=90),
        }
        for name, traced in broken.items():
            with self.subTest(check=name):
                checks = run.layer_checks([(fake_run(), traced)], adapts=True)
                self.assertFalse(checks[name])
                others = {k: v for k, v in checks.items() if k != name}
                self.assertTrue(all(others.values()), others)

    def test_adapt_check_only_where_algorithm3_runs(self):
        pair = (fake_run(), fake_trace(adapt_replay_exact=False))
        self.assertNotIn("adapt_replay_exact", run.layer_checks([pair], adapts=False))


class Standalone(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        # A tree holding only BENCHMARK.json and the benchmark's own files
        # cannot build: the command must exit non-zero and print no result.
        base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        tree = os.path.join(base, "standalone_test")
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
            shutil.copytree(HERE, os.path.join(tree, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tree, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
