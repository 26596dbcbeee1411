import contextlib
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

from drbracket import verify
from drbracket.binforms import BinaryForm, dr_series
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
                                        "invariance"])
    def test_targets_pass(self, capsys, target):
        code, out, _ = run(capsys, "verify", target, "--n", "3",
                           "--trials", "5", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["failures"] == []

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
         for target in verify.CHECKS], ids=lambda argv: " ".join(argv[:3]))
    def test_every_command_is_byte_deterministic(self, capsys, argv, fmt):
        _, out1, _ = run(capsys, *argv, "--format", fmt)
        _, out2, _ = run(capsys, *argv, "--format", fmt)
        assert out1 == out2

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

    def test_version_flag_exits_zero(self, capsys):
        assert main(["--version"]) == EXIT_OK
