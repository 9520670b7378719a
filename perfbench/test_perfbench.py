#!/usr/bin/env python3
"""The benchmark's own tests: seeding is reproducible and failure is loud.

    python3 perfbench/test_perfbench.py

Each case runs the real benchmark for one short second per run.
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


def run(workload, seed, trace):
    """Runs one short benchmark; returns (digests, metrics, result)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    digests = {}
    for line in lines:
        if line.startswith("# stream_digest="):
            for field in line[2:].split():
                key, value = field.split("=")
                digests[key] = value
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return digests, metrics, result


class SeededInputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.zipf = [run("zipf_hits", 7, 0) for _ in range(2)]
        cls.zipf_traced = [run("zipf_hits", 7, 1) for _ in range(2)]
        cls.fleet_traced = [run("fleet_forward", 7, 1) for _ in range(2)]
        cls.zipf_other = run("zipf_hits", 8, 0)

    def test_every_answer_checks_out(self):
        for _, _, result in (self.zipf + self.zipf_traced + self.fleet_traced
                             + [self.zipf_other]):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)

    def test_same_seed_same_stream_and_quality(self):
        (d1, m1, _), (d2, m2, _) = self.zipf
        self.assertEqual(d1, d2)
        for name in ("sim_speedup_vs_compiler", "param_gap_vs_exact_pct"):
            self.assertEqual(m1[name], m2[name], name)

    def test_same_seed_same_disk_hit_ratio(self):
        (_, m1, _), (_, m2, _) = self.zipf_traced
        self.assertGreater(m1["serve.disk_hit_ratio"], 0.0)
        self.assertEqual(m1["serve.disk_hit_ratio"], m2["serve.disk_hit_ratio"])

    def test_fleet_forwards_every_request(self):
        for _, metrics, _ in self.fleet_traced:
            self.assertEqual(metrics["net.forwarded_ratio"], 1.0)

    def test_other_seed_other_dags_and_stream(self):
        digests, _, _ = self.zipf_other
        self.assertNotEqual(digests["dags_digest"],
                            self.zipf[0][0]["dags_digest"])
        self.assertNotEqual(digests["stream_digest"],
                            self.zipf[0][0]["stream_digest"])


class LoudFailure(unittest.TestCase):
    def test_missing_sources_exit_nonzero_without_result(self):
        build = os.path.join(ROOT, ".bench_build")
        os.makedirs(build, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "zipf_hits", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
