"""End-to-end acceptance suite.

Each test certifies one headline guarantee of the library with exact
arithmetic (zero tolerance) inside a wall-clock budget, and prints a
single PASS/FAIL line so the suite doubles as a human-readable report.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as F

from drbracket.binforms import BinaryForm, discriminant, dr_series
from drbracket.brackets import (alpha, derive_seed, dr_bracket_sum,
                                forms_from_assignment, plucker_relation,
                                random_generic_assignment, verify_theorem1)
from drbracket.independence import (integer_matrix_rank, jacobian_rank,
                                    multiplicative_independence)
from drbracket.laurent import (LaurentMonomial, PolygonModel, degree_matrix_P,
                               dominance_check, dr_rows, laurent_expand_poly,
                               lex_leading_monomial, lm_dr_closed_form)
from drbracket.multipoly import MultiPoly
from drbracket.verify import CHECKS, passed


@contextmanager
def criterion(capfd, name, budget):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"{name}: {elapsed:.1f}s over {budget}s budget"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name} "
                  f"({elapsed:.2f}s, budget {budget:.0f}s)")


def test_01_degree_two_series_closed_form(capfd):
    with criterion(capfd, "degree-2 series equals its closed form", 1.0):
        f = BinaryForm.generic(2)
        g = BinaryForm.from_coeffs([MultiPoly.variable("b0")])
        series = dr_series(f, g, mode="symbolic")
        a0, a1, a2 = (MultiPoly.variable(f"a{i}") for i in range(3))
        b0 = MultiPoly.variable("b0")
        assert series.entries == (a0 * a2 * 4 - a1 ** 2, MultiPoly.zero(),
                                  b0 ** 2)


def test_02_bracket_sum_identity_symbolic(capfd):
    with criterion(capfd, "bracket-sum identity, full symbolic n=3", 60.0):
        report = verify_theorem1(3, mode="symbolic")
        assert report["failures"] == []


def test_03_bracket_sum_identity_randomized(capfd):
    with criterion(capfd, "bracket-sum identity, 100 random points "
                          "each n=2..8", 180.0):
        for n in range(2, 9):
            report = verify_theorem1(n, trials=100, seed=1000 + n)
            assert report["failures"] == [], report["failures"][:1]


def test_04_first_entry_vanishes(capfd):
    with criterion(capfd, "series entry r=1 is identically zero", 120.0):
        for n in range(2, 9):
            # one full symbolic expansion for n <= 4, else 100 points
            report = CHECKS["vanishing"](n, 100, seed=2000 + n)
            assert passed(report), report["failures"][:1]
            assert report["trials"] == (1 if n <= 4 else 100)


def test_05_laurent_expansion_soundness(capfd):
    with criterion(capfd, "polygon Laurent expansions: exact values, "
                          "legal denominators (n=3..6, 500 points)", 60.0):
        for n in (3, 4, 5, 6):
            report = CHECKS["laurent"](n, 500, seed=3000 + n)
            assert passed(report), report["failures"][:1]
            assert report["trials"] == 500


def test_06_leading_monomial_closed_forms(capfd):
    with criterion(capfd, "leading-monomial closed forms and per-term "
                          "dominance", 120.0):
        for n in (4, 5):
            model = PolygonModel(n)
            for r in dr_rows(n):
                expanded = laurent_expand_poly(model, dr_bracket_sum(n, r))
                assert (lex_leading_monomial(expanded, model)
                        == lm_dr_closed_form(n, r))
        for n in (3, 4, 5, 6):
            for r in dr_rows(n):
                assert dominance_check(n, r)["dominant"]


def test_07_rank_certificates(capfd):
    with criterion(capfd, "independence certificates: degree-matrix rank, "
                          "monomial independence, Jacobian rank", 120.0):
        for n in range(3, 13):
            method = "direct" if n == 3 else "closed_form"
            P = degree_matrix_P(n, method)
            rank, _ = integer_matrix_rank(P.matrix())
            assert rank == n
            if n >= 4:
                monomials = [lm_dr_closed_form(n, r) for r in dr_rows(n)]
            else:
                monomials = [LaurentMonomial.from_dict(
                    {v: d for v, d in zip(P.columns, degrees) if d})
                    for _, degrees in P.rows]
            cert = multiplicative_independence(monomials, P.columns)
            assert cert.verdict == "independent" and cert.rank == n
        for n in range(3, 8):
            report = jacobian_rank(n, points=10, seed=7000 + n)
            assert report["max_rank"] == n


def test_08_discriminant_sign_convention(capfd):
    with criterion(capfd, "discriminant equals the two-sided bracket "
                          "product, degrees 2..6", 30.0):
        rng = random.Random(8)
        for d in range(2, 7):
            for _ in range(20):
                roots = [(F(rng.randint(1, 9)),
                          F(rng.randint(1, 9) * rng.choice((1, -1))))
                         for _ in range(d)]
                coeffs = [F(1)]
                for u, v in roots:
                    nxt = [F(0)] * (len(coeffs) + 1)
                    for j, c in enumerate(coeffs):
                        nxt[j + 1] += c * u
                        nxt[j] += -c * v
                    coeffs = nxt
                f = BinaryForm.from_coeffs(coeffs)
                product = F(1)
                for i in range(d):
                    for j in range(d):
                        if i != j:
                            p, q = roots[i], roots[j]
                            product *= p[0] * q[1] - q[0] * p[1]
                assert discriminant(f) == product


def test_09_unimodular_invariance(capfd):
    with criterion(capfd, "series invariant under 20 unimodular "
                          "substitutions, n=2..6", 60.0):
        for n in range(2, 7):
            report = CHECKS["invariance"](n, 20, seed=9000 + n)
            assert passed(report), report["failures"][:1]
            assert report["trials"] == 20


def test_10_property_suite(capfd):
    with criterion(capfd, "exchange identity, scaling grades, and "
                          "per-term occurrence counts", 60.0):
        rng = random.Random(10)
        syms = tuple(alpha(i) for i in range(1, 5))
        relation = plucker_relation(*syms)
        for _ in range(1000):
            assignment = {s: (F(rng.randint(-30, 30)), F(rng.randint(-30, 30)))
                          for s in syms}
            assert relation.evaluate(assignment) == 0
        for n in (2, 3, 4, 5):
            assignment = random_generic_assignment(n, derive_seed(10_000, n))
            f, g = forms_from_assignment(assignment, n)
            base = dr_series(f, g, mode="numeric")
            lam, mu = F(3, 2), F(-5, 7)
            scaled = dr_series(f.scale(lam), g.scale(mu), mode="numeric")
            for r in range(n + 1):
                assert scaled.entries[r] == \
                    lam ** (2 * n - 2 - r) * mu ** r * base.entries[r]
        for n in (3, 4, 5):
            for r in range(n + 1):
                poly = dr_bracket_sum(n, r)
                assert len(poly) == math.comb(n, r)
                for factors in poly.terms:
                    occurrences = Counter()
                    for s, t in factors:
                        occurrences[s] += 1
                        occurrences[t] += 1
                    for i in range(1, n + 1):
                        assert occurrences[alpha(i)] == 2 * n - 2 - r
