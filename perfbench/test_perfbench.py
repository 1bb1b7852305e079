#!/usr/bin/env python3
"""The benchmark's own tests: tiny-length runs of every workload.

    python3 perfbench/test_perfbench.py        (from the repository root)

Checks that every metric BENCHMARK.json names is printed with its unit in
both modes, that the traced simulator run reproduces the untraced run's
deterministic counts, that a request withheld from delivery is reported as
failed, and that the known churn defect (seed 7) shows as failed episodes.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

TINY = {
    "tcp-small": ["--min-requests", "40"],
    "sim-batched-1k": ["--min-requests", "200"],
    "churn-explore": [],  # one pass over the pinned episode set
}
DEATH = re.compile(r"^# FAILED: \w+: the stack .* after (\d+) timed requests$")


def stack_deaths(notes):
    """Timed requests lost with each crashed or hung stack process (at
    least one per death, as the driver counts them)."""
    return [max(int(m.group(1)), 1) for m in map(DEATH.match, notes) if m]


def drive(workload, trace, *extra, seed=3, seconds=0.5):
    """Runs the driver binary; returns (notes, result)."""
    command = [run.BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_benchmark_json_matches_driver(self):
        listed = subprocess.run([run.BINARY, "--list-metrics"], stdout=subprocess.PIPE,
                                text=True, check=True).stdout.split("\n")
        rows = [line.split() for line in listed if line]
        for section in ("end_to_end", "per_layer"):
            want = [(m["name"], m["unit"]) for m in self.spec[section]]
            got = [(name, unit) for kind, name, unit in rows if kind == section]
            self.assertEqual(want, got, section)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_every_metric_present_with_unit(self):
        for workload, extra in TINY.items():
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    notes, result = drive(workload, trace, *extra)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(list(metrics), [m["name"] for m in self.spec[section]])
                    for m in self.spec[section]:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                        self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
                    if workload != "churn-explore":
                        # FS-NewTOP on sockets can crash (NOTES.md); every
                        # failure must then be a reported stack death.
                        self.assertTrue(result["correct"], notes)
                        self.assertEqual(result["failed"], sum(stack_deaths(notes)), notes)
                    if trace == 0:
                        for m in self.spec[section]:
                            self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])

    def test_traced_sim_run_keeps_deterministic_counts(self):
        notes, result = drive("sim-batched-1k", 1, *TINY["sim-batched-1k"])
        self.assertTrue(result["correct"], notes)
        equal = [n for n in notes if "deterministic counts equal" in n]
        self.assertEqual(len(equal), 3, notes)

    def test_withheld_request_counts_as_failed(self):
        for workload in ("sim-batched-1k", "tcp-small"):
            with self.subTest(workload=workload):
                notes, result = drive(workload, 0, *TINY[workload], "--withhold", "5")
                # One per stack and round; a stack process that died instead
                # counts the timed requests it had attempted.
                deaths = stack_deaths(notes)
                self.assertEqual(result["failed"], 27 - len(deaths) + sum(deaths), notes)
                self.assertTrue(result["correct"], notes)
        _, traced = drive("sim-batched-1k", 1, *TINY["sim-batched-1k"], "--withhold", "5")
        self.assertEqual(traced["failed"], 6)  # untraced + traced pass, per stack
        self.assertAlmostEqual(traced["metrics"]["failed_frac"]["value"],
                               6 / traced["attempted"])
        self.assertGreater(traced["metrics"]["failed_frac"]["value"], 0)

    def test_known_churn_defect_shows(self):
        notes, result = drive("churn-explore", 0, seed=7, seconds=0.1)
        self.assertEqual(result["attempted"], 180)
        self.assertEqual(result["failed"], 2)
        self.assertTrue(result["correct"])
        joined = "\n".join(notes)
        self.assertIn("explore/FS-NewTOP/n4/b1/e20", joined)
        self.assertIn("explore/PBFT/n4/b1/e7", joined)

    def test_driver_error_prints_no_result(self):
        done = subprocess.run([run.BINARY, "--workload", "nope", "--seed", "1", "--seconds",
                               "1", "--trace", "0"], stdout=subprocess.PIPE, text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def test_refuses_to_run_without_sources(self):
        # A tree holding only BENCHMARK.json and perfbench/ cannot build.
        bare = os.path.join(ROOT, ".bench_build", "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tcp-small",
                               "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
