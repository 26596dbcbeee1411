import json
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from drbracket.brackets import (AssignmentBudgetError, BracketPolynomial,
                                BracketSumUndefinedError, _expand,
                                all_symbols, alpha, beta, bracket_eval,
                                canonicalize, coordinate_vars, derive_seed,
                                dr_bracket_sum, forms_from_assignment,
                                plucker_relation, random_generic_assignment,
                                subsets_colex, term_factors, verify_theorem1)
from drbracket.multipoly import MultiPoly
from drbracket.verify import passed


class TestBracketEval:
    def test_unit(self):
        A = {alpha(1): (F(1), F(0)), alpha(2): (F(0), F(1))}
        assert bracket_eval(alpha(1), alpha(2), A) == 1

    def test_self_is_zero(self):
        A = {alpha(1): (F(3), F(5))}
        assert bracket_eval(alpha(1), alpha(1), A) == 0

    def test_antisymmetry(self):
        A = {alpha(1): (F(2), F(7)), beta(1): (F(-3), F(4))}
        assert (bracket_eval(alpha(1), beta(1), A)
                == -bracket_eval(beta(1), alpha(1), A))


class TestCanonicalize:
    def test_single_swap(self):
        m = canonicalize([(beta(1), alpha(2))])
        assert m.sign == -1
        assert m.factors == ((alpha(2), beta(1)),)

    def test_double_factor(self):
        m = canonicalize([(alpha(1), alpha(2)), (alpha(2), alpha(1))])
        assert m.sign == -1
        assert m.factors == ((alpha(1), alpha(2)), (alpha(1), alpha(2)))

    def test_repeated_symbol_collapses(self):
        m = canonicalize([(alpha(1), alpha(1))])
        assert m.sign == 0 and m.factors == ()


class TestPlucker:
    def test_random_assignments(self):
        rng = random.Random(1)
        syms = (alpha(1), alpha(2), alpha(3), alpha(4))
        rel = plucker_relation(*syms)
        for _ in range(1000):
            A = {s: (F(rng.randint(-20, 20)), F(rng.randint(-20, 20)))
                 for s in syms}
            assert rel.evaluate(A) == 0

    def test_standard_basis_pairs(self):
        syms = (alpha(1), alpha(2), alpha(3), alpha(4))
        rel = plucker_relation(*syms)
        pts = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1), F(-1))]
        A = dict(zip(syms, pts))
        assert rel.evaluate(A) == 0

    def test_repeated_symbol_rejected(self):
        with pytest.raises(ValueError):
            plucker_relation(alpha(1), alpha(2), alpha(3), alpha(3))


class TestBracketSum:
    def test_discriminant_single_term(self):
        p = dr_bracket_sum(3, 0)
        assert len(p) == 1
        ((factors, coeff),) = p.terms.items()
        assert Counter(factors) == Counter(
            {(alpha(i), alpha(j)): 2 for i in range(1, 4)
             for j in range(i + 1, 4)})
        assert abs(coeff) == 1

    def test_resultant_single_term(self):
        p = dr_bracket_sum(3, 3)
        assert len(p) == 1
        ((factors, coeff),) = p.terms.items()
        assert factors == tuple((alpha(i), beta(1)) for i in range(1, 4))
        assert abs(coeff) == 1

    def test_term_count(self):
        assert len(dr_bracket_sum(5, 2)) == math.comb(5, 2)

    def test_special_case(self):
        with pytest.raises(BracketSumUndefinedError):
            dr_bracket_sum(2, 2)

    def test_term_structure(self):
        for n in (3, 4, 5):
            for r in range(n + 1):
                p = dr_bracket_sum(n, r)
                for factors in p.terms:
                    assert len(factors) == (n - r) * (n - 1) + r * (n - 2)
                    occ = Counter()
                    for s, t in factors:
                        occ[s] += 1
                        occ[t] += 1
                    for i in range(1, n + 1):
                        assert occ[alpha(i)] == 2 * n - 2 - r
                    for k in range(1, n - 1):
                        assert occ[beta(k)] == r

    def test_r_one_vanishes_on_assignments(self):
        for n in (3, 4, 5, 6):
            p = dr_bracket_sum(n, 1)
            for trial in range(20):
                A = random_generic_assignment(n, derive_seed(41, (n, trial)))
                assert p.evaluate(A) == 0

    def test_empty_polynomial_evaluates_to_zero(self):
        p = BracketPolynomial(3)
        assert p.evaluate({}) == 0


def reference_bracket_sum(n, r):
    """The bracket sum term by term, through canonicalize."""
    p = BracketPolynomial(n)
    for I in subsets_colex(n, r):
        p.add_term(term_factors(n, I))
    return p


def reference_evaluate(poly, assignment):
    """Value of a bracket polynomial, one bracket factor at a time."""
    total = 0
    for factors, coeff in poly.terms.items():
        prod = coeff
        for s, t in factors:
            prod *= bracket_eval(s, t, assignment)
        total += prod
    return total


class TestBracketSumTables:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_canonicalized_terms(self, n):
        # same keys, coefficients and insertion order
        for r in range(n + 1):
            if (n, r) == (2, 2):
                continue
            assert (list(dr_bracket_sum(n, r).terms.items())
                    == list(reference_bracket_sum(n, r).terms.items()))

    def test_n2_r1_cancels(self):
        assert dr_bracket_sum(2, 1).terms == {}

    def test_calls_return_independent_objects(self):
        p, q = dr_bracket_sum(5, 2), dr_bracket_sum(5, 2)
        assert p is not q and p.terms is not q.terms
        p.terms[next(iter(p.terms))] += 1
        p.add_term([(alpha(1), beta(1))])
        assert q == dr_bracket_sum(5, 2) == reference_bracket_sum(5, 2)
        assert p != q


class TestEvaluate:
    @staticmethod
    def polynomials():
        yield BracketPolynomial(4)
        yield plucker_relation(alpha(1), alpha(3), beta(1), beta(2))
        for n in (3, 4, 5, 6):
            for r in range(n + 1):
                yield dr_bracket_sum(n, r)
        p = dr_bracket_sum(4, 2)
        p.add_term([(alpha(1), alpha(2)), (alpha(2), beta(2))], F(3, 7))
        p.add_term([], -5)
        yield p

    @pytest.mark.parametrize("kind", [int, F])
    def test_matches_per_factor_loop(self, kind):
        rng = random.Random(3)
        for poly in self.polynomials():
            A = {s: (kind(rng.randint(-9, 9)), kind(rng.randint(-9, 9)))
                 for s in all_symbols(6)}
            got, want = poly.evaluate(A), reference_evaluate(poly, A)
            assert got == want
            assert type(got) is type(want)

    def test_each_bracket_computed_once(self, monkeypatch):
        import drbracket.brackets as brackets
        A = random_generic_assignment(5, 1)
        seen = Counter()

        def counting(s, t, assignment):
            seen[s, t] += 1
            return real(s, t, assignment)
        real = brackets.bracket_eval
        monkeypatch.setattr(brackets, "bracket_eval", counting)
        p = dr_bracket_sum(5, 2)
        p.evaluate(A)
        assert set(seen) == {f for factors in p.terms for f in factors}
        assert set(seen.values()) == {1}


class TestForms:
    def test_discriminant_double_counts(self):
        p = dr_bracket_sum(3, 0)
        # discriminant factors come in i<j pairs squared
        ((factors, _),) = p.terms.items()
        assert Counter(factors) == Counter(
            {(alpha(i), alpha(j)): 2 for i in range(1, 4)
             for j in range(i + 1, 4)})

    def test_single_factor(self):
        assert _expand([(F(1), F(5))]) == [F(-5), F(1)]  # x - 5y

    def test_empty_beta_family_gives_constant_one(self):
        A = {alpha(1): (F(1), F(1)), alpha(2): (F(1), F(2))}
        _, g = forms_from_assignment(A, 2)
        assert g.coefficients == (F(1),)

    def test_two_factors(self):
        A = {alpha(1): (F(1), F(1)), alpha(2): (F(1), F(2))}
        f, _ = forms_from_assignment(A, 2)
        assert f.coefficients == (F(2), F(-3), F(1))  # x^2 - 3xy + 2y^2

    def test_monic_when_leading_coords_one(self):
        A = {alpha(1): (F(1), F(3)), alpha(2): (F(1), F(-4)),
             alpha(3): (F(1), F(7)), beta(1): (F(2), F(5))}
        f, _ = forms_from_assignment(A, 3)
        assert f.coefficients[-1] == 1


def expand_form_coefficients(family, m):
    """Coefficients of prod_j (u_j x - v_j y) over symbolic coordinates."""
    return _expand([tuple(MultiPoly.variable(x)
                          for x in coordinate_vars((family, j)))
                    for j in range(1, m + 1)])


class TestExpandFormCoefficients:
    def test_m1(self):
        a0, a1 = expand_form_coefficients("a", 1)
        assert a0 == -MultiPoly.variable("a1_1")
        assert a1 == MultiPoly.variable("a1_0")

    def test_m2_middle(self):
        coeffs = expand_form_coefficients("a", 2)
        u1, v1 = MultiPoly.variable("a1_0"), MultiPoly.variable("a1_1")
        u2, v2 = MultiPoly.variable("a2_0"), MultiPoly.variable("a2_1")
        assert coeffs[1] == -(u1 * v2) - (u2 * v1)

    def test_ends_product(self):
        coeffs = expand_form_coefficients("a", 3)
        us = [MultiPoly.variable(f"a{j}_0") for j in (1, 2, 3)]
        vs = [MultiPoly.variable(f"a{j}_1") for j in (1, 2, 3)]
        prod_u = us[0] * us[1] * us[2]
        prod_v = vs[0] * vs[1] * vs[2]
        assert coeffs[3] == prod_u
        assert coeffs[0] == -prod_v
        assert coeffs[0] * coeffs[3] == -(prod_u * prod_v)


class TestRandomAssignment:
    def test_deterministic(self):
        a = random_generic_assignment(4, 123)
        b = random_generic_assignment(4, 123)
        assert a == b

    def test_genericity(self):
        import itertools
        A = random_generic_assignment(5, 7)
        syms = list(A)
        for s, t in itertools.combinations(syms, 2):
            assert bracket_eval(s, t, A) != 0
        for s, (u, v) in A.items():
            if s[0] == "a":
                assert u != 0 and v != 0


def corrupt_bracket_sum(monkeypatch, bad_r):
    """Make brackets.dr_bracket_sum add 1 to one coefficient of the r = bad_r
    sum; at a generic assignment that moves its value by a product of
    nonzero brackets."""
    import drbracket.brackets as brackets
    real = brackets.dr_bracket_sum

    def corrupted(n, r):
        p = real(n, r)
        if r == bad_r:
            p.terms[next(iter(p.terms))] += 1
        return p
    monkeypatch.setattr(brackets, "dr_bracket_sum", corrupted)


class TestVerifyTheorem1:
    def test_numeric_small(self):
        for n in (2, 3, 4):
            rep = verify_theorem1(n, trials=10, seed=n)
            assert rep["failures"] == []

    def test_symbolic_n3(self):
        rep = verify_theorem1(3, mode="symbolic")
        assert rep["failures"] == []

    def test_symbolic_n4(self):
        # an exact polynomial identity in the 12 root coordinates
        rep = verify_theorem1(4, mode="symbolic")
        assert rep == {"n": 4, "mode": "symbolic", "trials": 1, "seed": 0,
                       "failures": []}

    def test_detects_injected_perturbation(self):
        # corrupting one bracket-sum coefficient must produce a witness
        from drbracket.binforms import dr_series
        n, r = 3, 2
        corrupted = dr_bracket_sum(n, r)
        factors = next(iter(corrupted.terms))
        corrupted.terms[factors] += 1
        A = random_generic_assignment(n, derive_seed(55, 0))
        f, g = forms_from_assignment(A, n)
        series = dr_series(f, g)
        assert corrupted.evaluate(A) != series.entries[r]

    def test_sampler_gives_up_before_any_sum_is_built(self, monkeypatch):
        # building the n + 1 sums takes far longer at large n than the
        # sampler takes to exhaust its budget
        import drbracket.brackets as brackets
        built = []

        def exhausted(n, seed):
            raise AssignmentBudgetError("no generic assignment")
        monkeypatch.setattr(brackets, "random_generic_assignment", exhausted)
        monkeypatch.setattr(brackets, "dr_bracket_sum",
                            lambda n, r: built.append(r))
        with pytest.raises(AssignmentBudgetError):
            verify_theorem1(5, trials=1)
        assert built == []

    @pytest.mark.parametrize("mode", ["bogus", "Numeric", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="mode"):
            verify_theorem1(3, trials=1, mode=mode)

    @pytest.mark.parametrize("mode", ["numeric", "symbolic"])
    def test_negative_trials_rejected(self, mode):
        with pytest.raises(ValueError, match="trials"):
            verify_theorem1(3, trials=-1, mode=mode)

    def test_wrong_sum_fails_in_numeric_mode(self, monkeypatch):
        corrupt_bracket_sum(monkeypatch, 2)
        rep = verify_theorem1(4, trials=3, seed=9)
        assert [(f["trial"], f["r"]) for f in rep["failures"]] == \
            [(0, 2), (1, 2), (2, 2)]
        for f in rep["failures"]:
            assert set(f) == {"trial", "r", "assignment", "series",
                              "bracket_sum"}
            assert f["series"] != f["bracket_sum"]
        assert not passed(rep)

    def test_wrong_sum_fails_in_symbolic_mode(self, monkeypatch):
        corrupt_bracket_sum(monkeypatch, 2)
        rep = verify_theorem1(3, mode="symbolic")
        assert rep["failures"] == [{"r": 2, "witness": "symbolic expansion"}]
        assert not passed(rep)

    @pytest.mark.parametrize("mode", ["numeric", "symbolic"])
    def test_wrong_sum_exits_1_from_the_cli(self, capsys, monkeypatch, mode):
        from drbracket.cli import EXIT_FAILURE, main
        corrupt_bracket_sum(monkeypatch, 2)
        code = main(["verify", "theorem1", "--n", "3", "--trials", "3",
                     "--mode", mode, "--format", "json"])
        assert code == EXIT_FAILURE
        assert json.loads(capsys.readouterr().out)["failures"]

    def test_colex_subset_order(self):
        assert subsets_colex(4, 2) == [(1, 2), (1, 3), (2, 3),
                                       (1, 4), (2, 4), (3, 4)]
