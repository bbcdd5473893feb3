#!/usr/bin/env python3
"""Self-tests of the benchmark, on the minimal size of every workload.

    python3 perfbench/test_run.py

Checks that every metric BENCHMARK.json names is emitted with its unit in
both modes, that a seeded corruption of an output fails the run, and that
the benchmark fails cleanly in a directory without the salign sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["family-seq", "genome-sad", "refs-batch", "serve-open"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, env=None):
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "min"] + list(extra),
        capture_output=True, text=True, cwd=cwd, env=env, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return p.returncode, result, p


class MetricsEmitted(unittest.TestCase):
    def check(self, workload, trace):
        rc, res, p = run(workload, trace)
        self.assertEqual(rc, 0, p.stdout + p.stderr)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], float)
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0)

    def test_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1)


class CorruptionFails(unittest.TestCase):
    def test_corrupted_output_fails(self):
        for w in WORKLOADS:
            for trace in ((0, 1) if w in ("family-seq", "genome-sad")
                          else (0,)):
                with self.subTest(workload=w, trace=trace):
                    rc, res, p = run(w, trace, "--corrupt-output")
                    self.assertNotEqual(rc, 0, p.stdout)
                    self.assertFalse(res["correct"])
                    self.assertIn("CHECK FAILED", p.stdout)


class BareDirectoryFails(unittest.TestCase):
    """A directory with only BENCHMARK.json and the benchmark's paths must
    fail at the build and print no result."""

    def bare_run(self, env=None):
        bare = os.path.join(ROOT, ".bench_build", "bare-selftest")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            rc, res, p = run("refs-batch", 0, cwd=bare, env=env)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(res, p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_without_sources(self):
        self.bare_run()

    def test_shared_build_dir_is_not_reused(self):
        # An absolute $CARGO_TARGET_DIR that already holds this checkout's
        # build: the bare directory must not build or time those sources.
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(
            ROOT, ".bench_build", "shared-selftest"))
        rc, _, p = run("family-seq", 0, env=env)
        self.assertEqual(rc, 0, p.stdout + p.stderr)
        try:
            self.bare_run(env)
        finally:
            shutil.rmtree(env["CARGO_TARGET_DIR"], ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
