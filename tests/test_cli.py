import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drbracket import verify
from drbracket.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main


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

    def test_degenerate_input_fails(self, capsys):
        forms = json.dumps({
            "f_n": {"degree": 2, "coefficients": ["0", "1", "1"]},
            "f_m": {"degree": 0, "coefficients": ["3"]},
        })
        code, _, _ = run(capsys, "dr-series", "--n", "2",
                         "--mode", "numeric", "--forms", forms)
        assert code == EXIT_FAILURE


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


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_version_flag_exits_zero(self, capsys):
        assert main(["--version"]) == EXIT_OK
