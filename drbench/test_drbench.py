"""Tests of the benchmark's own logic.

    python3 -m pytest drbench      (or: python3 -m unittest discover -s drbench)
"""

import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(measure.highest_percentile(100), 90.0)
        self.assertEqual(measure.highest_percentile(99), 75.0)
        self.assertEqual(measure.highest_percentile(1000), 99.0)
        self.assertEqual(measure.highest_percentile(10000), 99.9)
        self.assertEqual(measure.highest_percentile(20), 50.0)
        self.assertIsNone(measure.highest_percentile(19))

    def test_beyond_counts(self):
        self.assertEqual(measure.samples_beyond(100, 90.0), 10)
        self.assertEqual(measure.samples_beyond(105, 90.0), 10)
        self.assertEqual(measure.samples_beyond(99, 90.0), 9)

    def test_percentile_interpolates(self):
        values = list(range(1, 102))
        self.assertEqual(measure.percentile(values, 50.0), 51)
        self.assertEqual(measure.percentile(values, 90.0), 91)
        self.assertEqual(measure.percentile([3.0], 90.0), 3.0)


class Calibration(unittest.TestCase):
    def test_scaled_by_nearby_calibrations(self):
        # the CPU runs at half speed from the fourth request on
        calibrations = [10, 10, 10, 20, 20, 20]
        latencies = [100, 100, 100, 200, 200]
        self.assertEqual(measure.scaled(latencies, calibrations, 10, window=1),
                         [100, 100, 100 * 10 / 15, 100, 100])
        # a wider window lets one slow calibration through unnoticed
        self.assertEqual(measure.scaled([100, 100], [10, 40, 10], 10, window=2),
                         [100, 100])

    def test_calibration_work_is_fixed(self):
        self.assertEqual(measure.calibration_work(), measure.calibration_work())
        self.assertGreater(measure.calibration_ns(), 0)


class SelfTime(unittest.TestCase):
    def test_nested(self):
        # 0 [0,100] > 1 [10,60] > 2 [20,30] and 2 [40,45]
        spans = [(0, 0, 100, -1), (1, 10, 60, 0), (2, 20, 30, 1), (2, 40, 45, 1)]
        self.assertEqual(tracing.self_times(spans), {0: 50, 1: 35, 2: 15})

    def test_reentrant(self):
        # the same name nested in itself is not counted twice
        spans = [(0, 0, 100, -1), (0, 10, 50, 0), (0, 20, 30, 1), (1, 60, 70, 0)]
        self.assertEqual(tracing.self_times(spans), {0: 90, 1: 10})

    def test_signed_resultant_over_det(self):
        mods = run.load_library()
        specs = (("signed", "binforms", "signed_resultant", None),
                 ("det", "binforms", "det_fraction_free", None))
        tracer = tracing.Tracer(mods, specs)
        f = mods.binforms.BinaryForm.from_coeffs([1, 2, 3, 4])
        g = mods.binforms.BinaryForm.from_coeffs([5, 6, 7])
        tracer.patch()
        try:
            tracer.call(0, lambda: mods.binforms.discriminant(f))
            tracer.call(1, lambda: mods.binforms.signed_resultant(f, g))
        finally:
            tracer.unpatch()
        spans = tracer.span_tuples()
        names = [tracer.names[s[0]] for s in spans]
        self.assertEqual(names, ["request", "signed", "det", "request", "signed", "det"])
        for i in (2, 5):
            self.assertEqual(spans[i][3], i - 1)  # det's parent is signed
        selfs = tracing.self_times(spans)
        roots = [s for s in spans if s[3] < 0]
        self.assertEqual(sum(selfs.values()), sum(e - b for _, b, e, _ in roots))

    def test_jacobian_over_dr_series(self):
        mods = run.load_library()
        tracer = tracing.Tracer(mods)
        tracer.patch()
        try:
            res = tracer.call(0, lambda: mods.independence.jacobian_rank(3, points=1, seed=5))
        finally:
            tracer.unpatch()
        m = tracer.layer_metrics()
        with tempfile.TemporaryDirectory() as tmp:
            tracer.write(Path(tmp) / "spans.json")
            with open(Path(tmp) / "spans.json") as fh:
                written = json.load(fh)
        self.assertEqual(written["spans"], tracer.spans.tolist())
        self.assertEqual(res["points"], 1)
        self.assertEqual(m["independence.jacobian.calls"], 1)
        self.assertEqual(m["independence.jacobian.dr_series_calls"], 6)
        self.assertEqual(m["binforms.dr_series.calls"], 6)
        self.assertEqual(m["independence.jacobian.useful_ratio"], 1.0)
        self.assertGreater(m["rationals.dual_mul.calls"], 0)
        jac = tracer.names.index("independence.jacobian")
        dr = tracer.names.index("binforms.dr_series")
        spans = tracer.span_tuples()
        self.assertTrue(all(spans[s[3]][0] == jac for s in spans if s[0] == dr))


class Patching(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        mods = run.load_library()
        dr_series = mods.binforms.dr_series
        holders = [mods.pkg, mods.binforms, mods.brackets, mods.independence, mods.cli]
        self.assertTrue(all(h.dr_series is dr_series for h in holders))
        mul = mods.multipoly.MultiPoly.__dict__["__mul__"]
        tracer = tracing.Tracer(mods)
        tracer.patch()
        try:
            self.assertTrue(all(h.dr_series is not dr_series for h in holders))
            self.assertIs(mods.brackets.dr_series, mods.cli.dr_series)
            cls = mods.multipoly.MultiPoly
            self.assertIsNot(cls.__dict__["__mul__"], mul)
            self.assertIs(cls.__dict__["__rmul__"], cls.__dict__["__mul__"])
            self.assertTrue(hasattr(mods.rationals.DualScalar.__dict__["__rmul__"],
                                    "__wrapped__"))
        finally:
            tracer.unpatch()
        self.assertTrue(all(h.dr_series is dr_series for h in holders))
        self.assertIs(mods.multipoly.MultiPoly.__dict__["__rmul__"], mul)

    def test_metric_names_cover_spans(self):
        mods = run.load_library()
        tracer = tracing.Tracer(mods)
        names = set(tracer.layer_metrics()) | {"trace.overhead_frac"}
        self.assertEqual(names, set(tracing.metric_names()))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        mods = run.load_library()
        for name, make in workloads.WORKLOADS.items():
            a = [(r.kind, r.params) for r in make(mods, 1)]
            b = [(r.kind, r.params) for r in make(mods, 1)]
            c = [(r.kind, r.params) for r in make(mods, 2)]
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)
            self.assertGreaterEqual(len(a), 100, name)

    def _digest(self, seed):
        mods = run.load_library()
        reqs = [r for r in workloads.theorem1_int(mods, seed) if r.params["n"] == 5]
        failures, dig = run.check_pass(reqs, run.run_pass(reqs)[1])
        self.assertEqual(failures, {})
        return dig

    def test_same_seed_same_digest(self):
        self.assertEqual(self._digest(1), self._digest(1))
        self.assertNotEqual(self._digest(1), self._digest(2))


class InjectedFaults(unittest.TestCase):
    def test_wrong_bracket_value_fails_the_request(self):
        mods = run.load_library()
        reqs = [r for r in workloads.theorem1_int(mods, 3) if r.params["n"] == 5][:2]
        evaluate = mods.brackets.BracketPolynomial.evaluate
        with mock.patch.object(mods.brackets.BracketPolynomial, "evaluate",
                               lambda self, a: evaluate(self, a) + 1):
            failures, _ = run.check_pass(reqs, run.run_pass(reqs)[1])
        self.assertEqual(sorted(failures), [0, 1])

    def test_wrong_exit_code_and_raise_fail(self):
        mods = run.load_library()
        reqs = workloads.cli_rational(mods, 3)[:2]
        with mock.patch.object(mods.cli, "main", lambda argv: 1):
            failures, _ = run.check_pass(reqs, run.run_pass(reqs)[1])
        self.assertEqual(sorted(failures), [0, 1])
        with mock.patch.object(mods.cli, "main", mock.Mock(side_effect=ValueError("boom"))):
            failures, _ = run.check_pass(reqs, run.run_pass(reqs)[1])
        self.assertIn("boom", failures[0])

    def test_wrong_symbolic_entry_fails(self):
        mods = run.load_library()
        req = next(r for r in workloads.symbolic(mods, 3) if r.kind == "series n=3 k=2")
        series = req.run()
        bad = mods.binforms.DRSeries(series.n, (series.entries[0] + 1,) + series.entries[1:])
        failures, _ = run.check_pass([req, req], [series, bad])
        self.assertEqual(list(failures), [1])

    def _trivial_workload(self, m, seed):
        return [workloads.Request("trivial", {"i": i}, lambda i=i: Fraction(i),
                                  lambda out: str(out)) for i in range(100)]

    def test_digest_mismatch_counts_every_request(self):
        with mock.patch.dict(run.WORKLOADS, {"cli-rational": self._trivial_workload}), \
                mock.patch.object(run, "recorded_digest", lambda w, s: "0" * 64):
            out = run.measure_workload("cli-rational", 0, 0, trace=False)
        self.assertFalse(out["result"]["correct"])
        self.assertEqual(out["result"]["failed"], out["result"]["attempted"])
        self.assertEqual(out["result"]["metrics"]["ok_frac"]["value"], 0.0)

    def test_coverage_guard_fails_traced_run(self):
        with mock.patch.dict(run.WORKLOADS, {"cli-rational": self._trivial_workload}), \
                mock.patch.object(run, "recorded_digest", lambda w, s: None):
            out = run.measure_workload("cli-rational", 0, 0, trace=True)
        self.assertEqual(out["result"]["failed"], 0)
        self.assertFalse(out["result"]["correct"])
        self.assertTrue(any("cli.main" in m for m in out["provenance"]["failures"]))


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {n: run.layer_unit(n) for n in tracing.metric_names()})
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
