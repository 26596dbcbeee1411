import pytest

from drbracket import brackets, verify
from drbracket.brackets import BracketPolynomial, all_symbols, alpha
from drbracket.verify import CHECKS, NotApplicable, passed


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
        # not NotApplicable, which `verify all` shows as "n/a"
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

    @pytest.mark.parametrize("mode", ["numeric", "symbolic"])
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_reports_list_target_first(self, name, mode):
        # text output walks the report in order, so every check's cell
        # starts with its target
        try:
            report = CHECKS[name](3, 2, seed=1, mode=mode)
        except NotApplicable:
            return
        assert next(iter(report)) == "target" and report["target"] == name

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

    @pytest.mark.parametrize("name, n", [("theorem1", 3), ("vanishing", 5),
                                         ("invariance", 4), ("laurent", 4)])
    def test_numeric_checks_draw_each_point_once(self, monkeypatch, name, n):
        seeds = []
        real = brackets.random_generic_assignment

        def counting(n, seed):
            seeds.append(seed)
            return real(n, seed)
        monkeypatch.setattr(brackets, "random_generic_assignment", counting)
        report = CHECKS[name](n, 20, seed=1)
        assert passed(report) and report["trials"] == 20
        assert len(seeds) == len(set(seeds)) == 20
        if name == "invariance":  # skipped g's redraw no point
            assert report["skipped"] > 0

    @pytest.mark.parametrize("n, failures", [
        (4, [{"kind": "symbolic", "n": 4}]),
        (5, [{"trial": 0}, {"trial": 1}, {"trial": 2}])])
    def test_vanishing_witnesses(self, monkeypatch, n, failures):
        # an r = 1 sum plus [a1, a2] vanishes at no point, symbolic or not
        def corrupted(n, r):
            poly = BracketPolynomial(n, brackets.dr_bracket_sum(n, r).terms)
            poly.add_term([(alpha(1), alpha(2))])
            return poly
        monkeypatch.setattr(verify, "dr_bracket_sum", corrupted)
        report = CHECKS["vanishing"](n, 3)
        assert report["failures"] == failures and not passed(report)
