"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Runs every workload in --smoke mode with and without --trace and checks
that each metric BENCHMARK.json names is printed with its unit, that the
layer self times add up to the traced wall time, that a corrupted census
reference makes a run fail, and that the benchmark refuses to run under -O
or without the package's source. Takes about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from opnbounds import (UnboundedSlopeError, best_constant, build_system,  # noqa: E402
                       lemma2_scan)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT, flags=()):
    return subprocess.run([sys.executable, *flags, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.NAMES:
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    metrics = result["metrics"]
                    self.assertEqual({k: m["unit"] for k, m in metrics.items()}, want)
                    if trace:
                        layers = sum(m["value"] for k, m in metrics.items()
                                     if k.startswith("layer."))
                        self.assertAlmostEqual(layers, metrics["inprocess.wall_s"]["value"],
                                               places=9)

    def test_all_runs_every_workload(self):
        proc = bench("--workload", "all", "--seed", "3", "--seconds", "1", "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {f"{w}.{m['name']}" for w in run.NAMES for m in SPEC["end_to_end"]})

    def test_corrupted_census_reference_fails(self):
        reference = json.loads(workloads.CENSUS_REFERENCE.read_text())["counts"]
        reference["20000"]["S2 residue 1"] += 1
        record = run.run_workload("nt_scans", 3, 0, False, True, census_reference=reference)
        self.assertGreater(record["info"]["fail_ratio"][0], 0)
        self.assertTrue(any("census S2 residue 1" in p for p in record["problems"]))

    def test_seed_fixes_the_inputs(self):
        scratch = run.OUT / "selftest-work"
        for name in run.NAMES:
            first = workloads.build(name, 5, False, scratch)
            again = workloads.build(name, 5, False, scratch)
            other = workloads.build(name, 6, False, scratch)
            self.assertEqual(first.digest, again.digest)
            self.assertEqual([c.argv for c in first.commands], [c.argv for c in again.commands])
            self.assertNotEqual(first.digest, other.digest)

    def test_closed_form_matches_the_lp(self):
        for case in (workloads.COPRIME, workloads.DIVIDES):
            system = build_system(case)
            for slope in workloads.all_slopes(max_den=8):
                try:
                    constant = best_constant(system, slope).constant
                except UnboundedSlopeError:
                    constant = None
                self.assertEqual(workloads.closed_form(case, slope), constant,
                                 f"{case.value} {slope}")

    def test_pell_recurrence_gives_every_solution(self):
        self.assertEqual(workloads.pell_solutions(10**5), [s.p for s in lemma2_scan(10**5)])
        for p in workloads.pell_solutions(10**30):
            r = p * p + p + 1
            q = (isqrt(12 * r - 3) - 1) // 2
            self.assertEqual(q * q + q + 1, 3 * r, p)

    def test_refuses_under_optimize(self):
        proc = bench("--workload", "nt_scans", "--seed", "1", "--seconds", "1", "--smoke",
                     flags=("-O",))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_refuses_without_the_source(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                                   "nt_scans", "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
