"""Self-test of the benchmark harness at tiny sizes (about half a minute).

Run from the repository root:  python3 perfbench/selftest.py

It checks that BENCHMARK.json matches the metric and workload tables in the
code, that both measuring modes report every metric on tiny versions of the
workloads with no failed row or check, that the checks catch broken outputs,
and that the benchmark refuses to run without the program.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracer
import workloads
from workloads import ROOT, Tally

TINY = {
    "bound_sweep": workloads.BoundSweep(points=4),
    "tail_polytope": workloads.TailPolytope(points=4, reps=2_000),
    "validate_mc": workloads.ValidateMC(resolution=5, reps=300),
}
# Span counts a traced tiny run must show: (metric, expected value).
EXPECTED_CALLS = {
    "bound_sweep": (("bounds.pbar_density.calls", 4),
                    ("bounds.quad.cross_check.calls", 12),
                    ("bounds.tail_bound.calls", 0)),
    "tail_polytope": (("bounds.tail_bound.calls", 4),
                      ("bounds.quad.tail.calls", 4),
                      ("geometry.polytope_g_coeffs.calls", 1),
                      ("geometry.directions", 10 * 2_000),
                      ("simulate.sample_maxima.calls", 0)),
    "validate_mc": (("simulate.covariance_cholesky.calls", 2),
                    ("simulate.sample_maxima.calls", 2),
                    ("bounds.tail_bound.calls", 4),
                    ("bounds.pbar_density.calls", 0)),
}


class BenchmarkFile(unittest.TestCase):
    def test_matches_code_tables(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(doc["paths"], ["perfbench"])
        self.assertEqual(doc["workloads"],
                         [{"name": w.name, "why": w.why}
                          for w in workloads.WORKLOADS.values()])
        self.assertEqual(doc["end_to_end"],
                         [{"name": n, "unit": u, "better": b, "bound": bound}
                          for n, u, b, bound in run.E2E_METRICS])
        self.assertEqual(doc["per_layer"],
                         [{"name": n, "unit": u, "better": b}
                          for n, u, b, _ in tracer.LAYER_METRICS])
        for w in doc["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


class TinyRuns(unittest.TestCase):
    def setUp(self):
        self._min_setup = run.MIN_SETUP
        run.MIN_SETUP = 1

    def tearDown(self):
        run.MIN_SETUP = self._min_setup

    def test_end_to_end(self):
        for name, w in TINY.items():
            with self.subTest(workload=name):
                tally = Tally()
                samples, raw = run.measure(w, w.inputs(7),
                                           workloads.setup_inputs(7), 1, tally)
                self.assertEqual(tally.problems, [])
                self.assertGreater(tally.attempted, 0)
                self.assertEqual(set(samples), {n for n, *_ in run.E2E_METRICS})
                self.assertEqual(set(raw), {"wall_s", "cpu_s", "reference_s"})
                self.assertEqual(len(raw["reference_s"]), len(raw["wall_s"]) + 1)
                for metric, values in [*samples.items(), *raw.items()]:
                    self.assertTrue(values, metric)
                    for value in values:
                        self.assertTrue(math.isfinite(value) and value > 0, metric)

    def test_layers(self):
        names = [n for n, *_ in tracer.LAYER_METRICS]
        for name, w in TINY.items():
            with self.subTest(workload=name):
                tally = Tally()
                metrics = run.measure_layers(w, w.inputs(7),
                                             workloads.setup_inputs(7), tally)
                self.assertEqual(tally.problems, [])
                self.assertEqual(sorted(metrics), sorted(names))
                for metric, want in EXPECTED_CALLS[name]:
                    self.assertEqual(metrics[metric], want, metric)
                self.assertGreater(metrics["cli.import_s"], 0.0)
                # Tiny runs last about as long as start-up, so the untraced
                # reference time can be any small number; only its presence
                # is checked here.
                self.assertTrue(math.isfinite(metrics["trace.overhead_ratio"]))
                self.assertEqual(metrics["cli.main_s_1thread"] > 0.0,
                                 w.one_thread)


def _tally(w, inp, payload, exit_code=0):
    tally = Tally()
    text = json.dumps(payload)
    good = workloads.check_output(inp, exit_code, text, tally, w.name)
    if good is not None:
        w.check(inp, good, tally)
    return tally


class ChecksCatchBrokenOutputs(unittest.TestCase):
    """Run each tiny workload once, then corrupt its output."""

    @classmethod
    def setUpClass(cls):
        cls.outputs = {}
        for name, w in TINY.items():
            inp = w.inputs(3)
            sample = run.run_cli(inp.argv)
            cls.outputs[name] = (w, inp, json.loads(sample.stdout))

    def corrupted(self, name, edit):
        w, inp, payload = self.outputs[name]
        self.assertEqual(_tally(w, inp, payload).failed, 0)
        broken = json.loads(json.dumps(payload))
        edit(broken)
        return _tally(w, inp, broken)

    def test_bound_pbar_below_pE(self):
        def edit(p):
            p["rows"][1][1] = p["rows"][1][2] - 1.0
        self.assertGreater(self.corrupted("bound_sweep", edit).failed, 0)

    def test_bound_breakdown_sum(self):
        def edit(p):
            p["rows"][0][3] *= 1.5
        self.assertGreater(self.corrupted("bound_sweep", edit).failed, 0)

    def test_missing_row(self):
        def edit(p):
            del p["rows"][2]
        self.assertGreater(self.corrupted("tail_polytope", edit).failed, 0)

    def test_tail_increases(self):
        def edit(p):
            p["rows"][-1][1] = p["rows"][-2][1] * 2.0
        self.assertGreater(self.corrupted("tail_polytope", edit).failed, 0)

    def test_validate_verdict(self):
        def edit(p):
            p["rows"][0][5] = "inconclusive"
        self.assertGreater(self.corrupted("validate_mc", edit).failed, 0)

    def test_validate_refinement_gap(self):
        def edit(p):
            p["report"]["empirical_by_refinement"][0][1]["mean"] += 0.5
        self.assertGreater(self.corrupted("validate_mc", edit).failed, 0)

    def test_nonzero_exit_fails_every_row(self):
        w, inp, payload = self.outputs["tail_polytope"]
        tally = _tally(w, inp, payload, exit_code=3)
        self.assertEqual(tally.failed, len(inp.levels))

    def test_deep_check_catches_wrong_value(self):
        w, inp, payload = self.outputs["bound_sweep"]
        broken = json.loads(json.dumps(payload))
        for i in inp.spots:
            broken["rows"][i][1] *= 1.0 + 1e-5
        tally = Tally()
        w.check_deep(inp, broken, tally)
        self.assertEqual(tally.failed, len(inp.spots))


class SeedsAndPackaging(unittest.TestCase):
    def test_inputs_are_a_function_of_the_seed(self):
        for w in workloads.WORKLOADS.values():
            self.assertEqual(w.inputs(5), w.inputs(5))
        bound = workloads.WORKLOADS["bound_sweep"]
        self.assertNotEqual(bound.inputs(5).levels, bound.inputs(6).levels)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bound_sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
