import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drbracket import brackets, verify
from drbracket.binforms import BinaryForm, dr_series
from drbracket.brackets import AssignmentBudgetError
from drbracket.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from drbracket.rationals import format_rational, parse_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDRSeries:
    def test_symbolic_n2(self, capsys):
        code, out, _ = run(capsys, "dr-series", "--n", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        entries = {e["r"]: e["text"] for e in payload["entries"]}
        assert entries[1] == "0"
        assert "b0" in entries[2]

    def test_numeric_from_inline_forms(self, capsys):
        forms = json.dumps({
            "f_n": {"degree": 2, "coefficients": ["1", "0", "1"]},
            "f_m": {"degree": 0, "coefficients": ["3"]},
        })
        code, out, _ = run(capsys, "dr-series", "--n", "2",
                           "--mode", "numeric", "--forms", forms,
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        values = [e["value"] for e in payload["entries"]]
        assert values == ["4", "0", "9"]

    def test_numeric_from_file(self, capsys, tmp_path):
        path = tmp_path / "forms.json"
        path.write_text(json.dumps({
            "f_n": {"degree": 2, "coefficients": ["1", "0", "1"]},
            "f_m": {"degree": 0, "coefficients": ["3"]},
        }))
        code, out, _ = run(capsys, "dr-series", "--n", "2",
                           "--mode", "numeric", "--in", str(path),
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["entries"][0]["value"] == "4"

    def test_malformed_json_is_usage_error(self, capsys):
        code, _, err = run(capsys, "dr-series", "--n", "2",
                           "--mode", "numeric", "--forms", "{not json")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_degree_mismatch_is_usage_error(self, capsys):
        forms = json.dumps({
            "f_n": {"degree": 2, "coefficients": ["1", "0", "1"]},
            "f_m": {"degree": 1, "coefficients": ["3", "1"]},
        })
        code, _, err = run(capsys, "dr-series", "--n", "3",
                           "--mode", "numeric", "--forms", forms)
        assert code == EXIT_USAGE

    def test_numeric_needs_forms(self, capsys):
        code, _, _ = run(capsys, "dr-series", "--n", "3", "--mode", "numeric")
        assert code == EXIT_USAGE

    def test_missing_input_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "dr-series", "--n", "2",
                             "--mode", "numeric",
                             "--in", str(tmp_path / "missing.json"))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    def test_input_file_not_utf8_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "forms.json"
        path.write_bytes(b'{"f_n": "\xff\xfe"}')
        code, out, err = run(capsys, "dr-series", "--n", "2",
                             "--mode", "numeric", "--in", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert out == ""

    def test_deeply_nested_forms_are_usage_error(self, capsys):
        code, out, err = run(capsys, "dr-series", "--n", "2",
                             "--mode", "numeric", "--forms", "[" * 100000)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert out == ""

    def test_zero_denominator_is_usage_error(self, capsys):
        forms = json.dumps({
            "f_n": {"degree": 2, "coefficients": ["1", "1/0", "1"]},
            "f_m": {"degree": 0, "coefficients": ["3"]},
        })
        code, out, err = run(capsys, "dr-series", "--n", "2",
                             "--mode", "numeric", "--forms", forms)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("f_n", [
        {"degree": 2, "coefficients": [1, 0, 1]},
        {"degree": 2, "coefficients": [None, "0", "1"]},
        {"degree": 2, "coefficients": "101"},
        {"degree": 2.5, "coefficients": ["1", "0", "1"]},
    ])
    def test_mistyped_form_fields_are_usage_errors(self, capsys, f_n):
        forms = json.dumps({"f_n": f_n,
                            "f_m": {"degree": 0, "coefficients": ["3"]}})
        code, out, err = run(capsys, "dr-series", "--n", "2",
                             "--mode", "numeric", "--forms", forms)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "dr-series", "--n", "2",
                             "--out", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert out == "" and not path.exists()

    @pytest.mark.parametrize("mode", [[], ["--mode", "symbolic"]])
    def test_symbolic_mode_with_forms_is_usage_error(self, capsys, mode):
        forms = json.dumps({
            "f_n": {"degree": 2, "coefficients": ["1", "0", "1"]},
            "f_m": {"degree": 0, "coefficients": ["3"]},
        })
        code, out, err = run(capsys, "dr-series", "--n", "2", *mode,
                             "--forms", forms)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    # exponent notation, and a literal past the digit cap on input
    @pytest.mark.parametrize("coeff", ["1e5000", "1e999999999", "1" * 5000])
    def test_coefficient_outside_p_or_p_q_is_usage_error(self, capsys, coeff):
        forms = json.dumps({
            "f_n": {"degree": 2, "coefficients": ["1", coeff, "1"]},
            "f_m": {"degree": 0, "coefficients": ["3"]},
        })
        code, out, err = run(capsys, "dr-series", "--n", "2",
                             "--mode", "numeric", "--forms", forms)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    def test_results_past_the_digit_cap_print_in_full(self, capsys):
        big = "7" * 1000
        f_n = {"degree": 6, "coefficients": [big] + ["1"] * 5 + [big]}
        f_m = {"degree": 4, "coefficients": ["1"] * 5}
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "dr-series", "--n", "6", "--mode",
                           "numeric", "--forms",
                           json.dumps({"f_n": f_n, "f_m": f_m}),
                           "--format", "json")
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
        values = [e["value"] for e in json.loads(out)["entries"]]
        assert max(map(len, values)) > limit
        series = dr_series(BinaryForm.from_json(f_n),
                           BinaryForm.from_json(f_m), mode="numeric")
        sys.set_int_max_str_digits(0)
        try:
            assert values == [format_rational(e) for e in series.entries]
        finally:
            sys.set_int_max_str_digits(limit)

    def test_degenerate_input_fails(self, capsys):
        forms = json.dumps({
            "f_n": {"degree": 2, "coefficients": ["0", "1", "1"]},
            "f_m": {"degree": 0, "coefficients": ["3"]},
        })
        code, _, _ = run(capsys, "dr-series", "--n", "2",
                         "--mode", "numeric", "--forms", forms)
        assert code == EXIT_FAILURE


class TestParseRational:
    @pytest.mark.parametrize("text, value", [
        ("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), (" +6/4 ", Fraction(3, 2)),
        ("0/5", Fraction(0)),
    ])
    def test_p_and_p_over_q(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1e5000", "1E3", "1.5", ".5", "1_000",
                                      "3/-4", "/4", "4/", "", "x", "\u0663",
                                      "inf", "nan", "1/2/3"])
    def test_other_forms_rejected(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_input_keeps_the_digit_cap(self):
        with pytest.raises(ValueError):
            parse_rational("1" * (sys.get_int_max_str_digits() + 1))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)
form_slots = json_values | st.fixed_dictionaries({
    "degree": st.integers(-1, 3) | json_values,
    "coefficients": st.lists(st.sampled_from(["0", "1", "-2", "1/3", "1/0",
                                              "x", ""]) | json_values,
                             max_size=4) | json_values})


@settings(max_examples=150, deadline=None)
@given(form_slots, form_slots)
def test_arbitrary_form_json_never_escapes(f_n, f_m):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["dr-series", "--n", "2", "--mode", "numeric",
                     "--forms", json.dumps({"f_n": f_n, "f_m": f_m})])
    assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error:") and out.getvalue() == ""


class TestVerify:
    @pytest.mark.parametrize("target", ["theorem1", "vanishing", "plucker",
                                        "invariance", "all"])
    def test_targets_pass(self, capsys, target):
        code, out, _ = run(capsys, "verify", target, "--n", "3",
                           "--trials", "5", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        if target == "all":
            assert payload["all_passed"] is True
        else:
            assert payload["failures"] == []

    def test_laurent_target(self, capsys):
        code, out, _ = run(capsys, "verify", "laurent", "--n", "4",
                           "--trials", "3", "--format", "json")
        assert code == EXIT_OK

    def test_laurent_needs_n3(self, capsys):
        code, _, _ = run(capsys, "verify", "laurent", "--n", "2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("target", ["plucker", "invariance", "laurent"])
    def test_symbolic_mode_not_applicable(self, capsys, target):
        code, out, err = run(capsys, "verify", target, "--n", "3",
                             "--mode", "symbolic")
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "verify", "theorem1", "--n", "3",
                             "--trials", trials)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    def test_exhausted_assignment_budget_is_usage_error(self, capsys):
        # at n = 18 the seed-1 sampler finds no 34 pairwise non-proportional
        # points in the [-10, 10] box within its candidate budget
        code, out, err = run(capsys, "verify", "laurent", "--n", "18",
                             "--trials", "1", "--seed", "1")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1 and "n=18" in err

    def test_unknown_target_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == EXIT_USAGE

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "verify", "plucker", "--trials", "3")
        assert code == EXIT_OK
        assert "target: plucker" in out

    def test_zero_checks_made_is_a_failure(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.CHECKS, "plucker",
                            lambda n, trials, seed=0, mode="numeric":
                            {"target": "plucker", "trials": 0, "failures": []})
        code, _, _ = run(capsys, "verify", "plucker", "--trials", "3")
        assert code == EXIT_FAILURE

    def test_r_flag_is_gone(self, capsys):
        code, _, _ = run(capsys, "verify", "theorem1", "--r", "2")
        assert code == EXIT_USAGE


def verify_all(capsys, *argv):
    code, out, err = run(capsys, "verify", "all", *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


class TestVerifyAll:
    def test_table(self, capsys):
        code, payload, _ = verify_all(capsys, "--n", "3", "--trials", "2")
        assert code == EXIT_OK and payload["all_passed"] is True
        assert payload["target"] == "all"
        assert [row["n"] for row in payload["results"]] == [2, 3]
        row2, row3 = (row["checks"] for row in payload["results"])
        assert set(row2) == set(row3) == set(verify.CHECKS)
        assert row2["laurent"] == row2["plucker"] == "n/a"
        assert all(verify.passed(row2[name]) for name in verify.CHECKS
                   if name not in ("laurent", "plucker"))
        assert all(verify.passed(row3[name]) for name in verify.CHECKS)
        # each cell is the check's own report, as the single target gives it
        assert row3["plucker"] == verify.CHECKS["plucker"](3, 2)

    @pytest.mark.parametrize("argv", [["--trials", "0"], ["--n", "1"]])
    def test_bad_arguments_exit_2(self, capsys, argv):
        code, payload, err = verify_all(capsys, *argv)
        assert code == EXIT_USAGE and payload is None
        assert err.startswith("error:") and len(err.splitlines()) == 1

    # a witnessed failure, and a check that checked nothing
    @pytest.mark.parametrize("trials,failures", [(1, [{"trial": 0}]),
                                                 (0, [])])
    def test_failing_check_exits_1(self, capsys, monkeypatch, trials,
                                   failures):
        monkeypatch.setitem(verify.CHECKS, "plucker",
                            lambda n, _, seed=0, mode="numeric":
                            {"target": "plucker", "trials": trials,
                             "failures": failures})
        code, payload, _ = verify_all(capsys, "--n", "2", "--trials", "1")
        assert code == EXIT_FAILURE and payload["all_passed"] is False
        assert payload["results"][0]["checks"]["plucker"]["failures"] == (
            failures)

    def test_symbolic_mode(self, capsys):
        code, payload, _ = verify_all(capsys, "--n", "3", "--mode", "symbolic")
        assert code == EXIT_OK and payload["all_passed"] is True
        for row in payload["results"]:
            checks = row["checks"]
            assert {name for name in checks if checks[name] == "n/a"} == {
                "plucker", "invariance", "laurent"}
            assert checks["theorem1"]["mode"] == "symbolic"

    def test_exhausted_sampler_exits_2(self, capsys, monkeypatch):
        def exhausted(n, seed):
            raise AssignmentBudgetError(f"no generic assignment at n={n}")
        monkeypatch.setattr(brackets, "random_generic_assignment", exhausted)
        code, out, err = run(capsys, "verify", "all", "--n", "3",
                             "--trials", "1")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_sampler_exhausted_at_the_largest_n_runs_no_check(
            self, capsys, monkeypatch):
        # the seeds of n = 2..N-1 are fine and only n = N runs out, as at
        # --n 18 --seed 1: the run stops before any check at any n
        real = brackets.random_generic_assignment

        def sampler(n, seed):
            if n == 4:
                raise AssignmentBudgetError(f"no generic assignment at n={n}")
            return real(n, seed)
        monkeypatch.setattr(brackets, "random_generic_assignment", sampler)
        ran = []

        def recording(name, check):
            def wrapper(n, *args, **kwargs):
                ran.append((name, n))
                return check(n, *args, **kwargs)
            return wrapper
        for name, check in list(verify.CHECKS.items()):
            monkeypatch.setitem(verify.CHECKS, name, recording(name, check))
        code, out, err = run(capsys, "verify", "all", "--n", "4",
                             "--trials", "2")
        assert code == EXIT_USAGE and out == "" and ran == []
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "n=4" in err


class TestIndependence:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, "independence", "--n", "3",
                           "--trials", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["all_independent"] is True

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "independence", "--n", "3",
                             "--trials", trials)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and out == ""

    def test_below_3_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "independence", "--n", "2")
        assert code == EXIT_USAGE


class TestDeterminism:
    def test_identical_flags_identical_bytes(self, capsys):
        argv = ["verify", "theorem1", "--n", "3", "--trials", "5",
                "--seed", "7", "--format", "json"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("argv", [
        ["dr-series", "--n", "3"],
        ["dr-series", "--n", "2", "--mode", "numeric", "--forms",
         '{"f_n": {"degree": 2, "coefficients": ["1", "1/2", "3"]},'
         ' "f_m": {"degree": 0, "coefficients": ["-2/3"]}}'],
        ["independence", "--n", "4", "--trials", "1"],
    ] + [["verify", target, "--n", "3", "--trials", "3", "--seed", "5"]
         for target in (*verify.CHECKS, "all")],
        ids=lambda argv: " ".join(argv[:3]))
    def test_every_command_is_byte_deterministic(self, capsys, argv, fmt):
        _, out1, _ = run(capsys, *argv, "--format", fmt)
        _, out2, _ = run(capsys, *argv, "--format", fmt)
        assert out1 == out2

    # sha256 of stdout, the same under python -O and any PYTHONHASHSEED:
    # checks rewritten over lists of points, and bracket sums evaluated in
    # product form, must keep these bytes
    @pytest.mark.parametrize("argv, digest", [
        ("verify all --n 6 --trials 10 --format json",
         "f8240c34d40c2e4e9721b8f234541f227067da3522fc90604d2a01e345a9ee94"),
        ("verify all --n 4 --mode symbolic --trials 3 --format json",
         "1ccb829379dff090797e90e483a4a0d70ebbf71bc91653ff468955674f30f38d"),
        ("verify invariance --n 6 --trials 40 --seed 5 --format json",
         "3a64a2e0e8082e63410aeef53f8380bf39872d0d24e92124fb5f35d9d114d44d"),
        ("verify theorem1 --n 8 --trials 100 --seed 3 --format json",
         "0bd6819f8b5feeec77ca6fec285d01c436bae38a9688ad397a07a3a3af171821"),
        ("verify theorem1 --n 16 --trials 2 --seed 1 --format json",
         "f1c175498f98e55e7d85e6774eff262d20e99a37bb444111b9bdbeff14849aae"),
    ])
    def test_verify_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # numeric series of rational forms, sha256 of stdout: n = 8 and n = 16
    # are --forms cases of CI's python -O steps, n = 12 cli-rational's
    # largest size; n = 8 and 12 were recorded before Bareiss took the
    # symmetric pass on persymmetric Bezout matrices, and all five with
    # the order-n Bezout matrices of f_n, before the samples were taken
    # from the order n - 1 Bezout matrices of h_t and k_t; n = 2 has
    # integral coefficients (no unscaling) and an order-1 matrix
    @pytest.mark.parametrize("forms, digest", [
        ('{"f_n":{"degree":2,"coefficients":["3","-5","2"]},"f_m":'
         '{"degree":0,"coefficients":["-7"]}}',
         "d3f48da02e357fd7e08c89dd44bed4e91ae5a47967027677c1e7d0ee7f6434e1"),
        ('{"f_n":{"degree":3,"coefficients":["2/5","-1","7/3","-3/2"]},'
         '"f_m":{"degree":1,"coefficients":["4/7","-5/6"]}}',
         "bae92841a21d343d1ea7221deffcf5fceae9777f464cc4ac867547201ecfd070"),
        ('{"f_n":{"degree":8,"coefficients":["3/7","-5/2","1","0","2/3",'
         '"-1/4","7","-9/5","11/6"]},"f_m":{"degree":6,"coefficients":'
         '["-5/2","3/7","0","4/9","-1","2","1/3"]}}',
         "bf12601f0f9b6b3be9607c1edb062988934dd6c9899573ca52b0bb4487c63b4a"),
        ('{"f_n":{"degree":12,"coefficients":["5/3","-7/2","2","0","-4/9",'
         '"13/5","-1","3/8","11/4","-6/7","1/2","9","-8/11"]},"f_m":'
         '{"degree":10,"coefficients":["-2/5","7/3","0","1","-3/4","5/6",'
         '"-9/2","4/7","10","-1/9","3/2"]}}',
         "d67f67533a2aac0335c30cf7f72b6238c4b58ac493527e15e9e5a96b52bc2f78"),
        ('{"f_n":{"degree":16,"coefficients":["7/4","-2/3","5","0","-11/6",'
         '"3/8","1","-9/7","2/5","13/4","-1/2","6","-5/9","4/3","-7/10","8",'
         '"-3/11"]},"f_m":{"degree":14,"coefficients":["-3/5","5/4","0","2",'
         '"-7/3","1/6","-4","9/8","3","-2/7","11/5","-1","5/2","-8/9",'
         '"1/4"]}}',
         "297230ae3228d23d26cc643fbdcd3275071e125b034e7ff60fa435ae6b5bd355"),
    ], ids=["n2", "n3", "n8", "n12", "n16"])
    def test_numeric_series_bytes_are_pinned(self, capsys, forms, digest):
        n = str(json.loads(forms)["f_n"]["degree"])
        code, out, _ = run(capsys, "dr-series", "--mode", "numeric", "--n", n,
                           "--forms", forms, "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_budget_overrun_warns_on_stderr(self, capsys):
        argv = ["dr-series", "--n", "3", "--budget", "0", "--format", "json"]
        code1, out1, err1 = run(capsys, *argv)
        code2, out2, err2 = run(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2 and "budget_exceeded" not in out1
        assert json.loads(out1)["config"]["budget"] == 0
        for err in (err1, err2):
            assert err.startswith("warning:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("budget", ["-1", "nan", "inf"])
    def test_bad_budget_is_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "verify", "theorem1", "--n", "3",
                             "--trials", "1", "--budget", budget)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_seed_changes_witness_points(self, capsys):
        _, out1, _ = run(capsys, "independence", "--n", "3", "--trials", "2",
                         "--seed", "1", "--format", "json")
        _, out2, _ = run(capsys, "independence", "--n", "3", "--trials", "2",
                         "--seed", "2", "--format", "json")
        p1 = json.loads(out1)["results"][0]["jacobian"]["per_point"]
        p2 = json.loads(out2)["results"][0]["jacobian"]["per_point"]
        assert p1 != p2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "plucker", "--trials", "3",
                           "--format", "json", "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(path.read_text())["failures"] == []

    def test_closed_stdout_exits_2_without_traceback(self):
        # a reader that stops early (``| head -n 1``) closes the pipe; with
        # its read end closed before the run starts, every write fails
        import drbracket
        src = str(Path(drbracket.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "drbracket.cli", "independence",
                 "--n", "5", "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=300,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == b""


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_shared_parser_keeps_no_values_between_calls(self, capsys):
        from drbracket.cli import build_parser
        assert build_parser() is build_parser()
        verify_argv = ["verify", "theorem1", "--n", "3", "--trials", "3",
                       "--seed", "7", "--format", "json"]
        code1, out1, _ = run(capsys, *verify_argv)
        # argparse stops at --trials after taking --n and --seed
        code2, out2, err2 = run(capsys, "verify", "theorem1", "--n", "9",
                                "--seed", "5", "--trials", "nope")
        code3, out3, _ = run(
            capsys, "dr-series", "--n", "2", "--mode", "numeric", "--seed",
            "11", "--format", "json", "--forms",
            '{"f_n": {"degree": 2, "coefficients": ["1", "1/2", "3"]},'
            ' "f_m": {"degree": 0, "coefficients": ["-2/3"]}}')
        code4, out4, _ = run(capsys, *verify_argv)
        assert (code1, code2, code3, code4) == (EXIT_OK, EXIT_USAGE,
                                                EXIT_OK, EXIT_OK)
        assert out2 == "" and "--trials" in err2
        assert out4 == out1
        assert json.loads(out1)["config"] == {
            "budget": None, "command": "verify", "format": "json",
            "mode": "numeric", "n": 3, "out": None, "seed": 7,
            "target": "theorem1", "trials": 3}
        assert json.loads(out3)["config"] == {
            "budget": None, "command": "dr-series", "format": "json",
            "infile": None, "mode": "numeric", "n": 2, "out": None,
            "seed": 11}

    def test_version_flag_exits_zero(self, capsys):
        assert main(["--version"]) == EXIT_OK
