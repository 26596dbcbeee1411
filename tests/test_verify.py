import importlib.util
from pathlib import Path

import pytest

from drbracket import verify
from drbracket.brackets import all_symbols
from drbracket.verify import CHECKS, NotApplicable, passed

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verify_identities.py"


def load_script():
    spec = importlib.util.spec_from_file_location("verify_identities", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRegistry:
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_passes_and_counts_checks(self, name):
        report = CHECKS[name](3, 4, seed=1)
        assert passed(report)
        assert report["trials"] == (1 if name == "vanishing" else 4)

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_zero_trials_never_pass(self, name):
        # n = 5 keeps vanishing on its randomized path
        assert not passed(CHECKS[name](5, 0))

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_unknown_mode_is_an_error(self, name):
        # not NotApplicable, which the script shows as "n/a"
        with pytest.raises(ValueError, match="mode") as exc:
            CHECKS[name](3, 1, mode="bogus")
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("mode", ["numeric", "symbolic"])
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_negative_trials_is_an_error(self, name, mode):
        with pytest.raises(ValueError, match="trials") as exc:
            CHECKS[name](3, -1, mode=mode)
        assert type(exc.value) is ValueError

    def test_laurent_not_applicable_below_3(self):
        with pytest.raises(NotApplicable):
            CHECKS["laurent"](2, 3)

    def test_plucker_needs_four_symbols(self):
        with pytest.raises(NotApplicable):
            CHECKS["plucker"](2, 3)  # n = 2 has the symbols a1, a2 only

    @pytest.mark.parametrize("name", ["plucker", "invariance", "laurent"])
    def test_numeric_only_checks_refuse_symbolic(self, name):
        with pytest.raises(NotApplicable):
            CHECKS[name](3, 3, mode="symbolic")

    @pytest.mark.parametrize("mode", ["numeric", "symbolic"])
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_reports_echo_n_and_mode(self, name, mode):
        try:
            report = CHECKS[name](3, 2, seed=1, mode=mode)
        except NotApplicable:
            return
        # vanishing says when it ran symbolically, as it does for n <= 4
        ran = "symbolic" if name == "vanishing" else mode
        assert report["n"] == 3 and report["mode"] == ran

    def test_plucker_draws_symbols_of_n(self, monkeypatch):
        drawn = set()

        def recording(*syms):
            drawn.update(syms)
            return real(*syms)
        real = verify.plucker_relation
        monkeypatch.setattr(verify, "plucker_relation", recording)
        assert passed(CHECKS["plucker"](6, 30, seed=2))
        assert drawn <= set(all_symbols(6))
        assert len(drawn) > 4

    def test_invariance_counts_checked_and_skipped(self, monkeypatch):
        calls = {"sl2": 0, "series": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(verify, "sl2_transform",
                            counting("sl2", verify.sl2_transform))
        monkeypatch.setattr(verify, "dr_series",
                            counting("series", verify.dr_series))
        report = CHECKS["invariance"](3, 20, seed=0)
        assert passed(report) and report["trials"] == 20
        assert report["skipped"] > 0
        # each draw transforms f_n; each check also transforms f_{n-2}
        # and computes two series
        assert calls["series"] == 2 * report["trials"]
        assert calls["sl2"] == 2 * report["trials"] + report["skipped"]

    def test_invariance_all_degenerate_is_not_a_pass(self, monkeypatch):
        monkeypatch.setattr(verify, "sl2_transform",
                            lambda f, g: f.scale(0))
        report = CHECKS["invariance"](3, 2)
        assert report["trials"] == 0 and report["skipped"] == 100
        assert not passed(report)


class TestScript:
    def test_table(self, capsys):
        code = load_script().main(["--n-min", "2", "--n-max", "3",
                                   "--trials", "2"])
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split()
        assert header[1:-1] == list(CHECKS)
        row2 = dict(zip(header, lines[1].split()))
        row3 = dict(zip(header, lines[2].split()))
        assert row2["laurent"] == row2["plucker"] == "n/a"
        assert all(row2[name] == "ok" for name in CHECKS
                   if name not in ("laurent", "plucker"))
        assert all(row3[name] == "ok" for name in CHECKS)
        assert code == 0 and lines[-1] == "all checks passed"

    @pytest.mark.parametrize("argv", [["--trials", "0"], ["--n-min", "1"]])
    def test_bad_arguments_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            load_script().main(argv)
        assert exc.value.code == 2
