"""Symbolic DR series against sympy's resultant, an independent oracle.

sympy is not a dependency of drbracket, so this module is skipped where it
is not installed.
"""

import random

import pytest

from drbracket.binforms import BinaryForm, dr_series
from drbracket.multipoly import MultiPoly

sympy = pytest.importorskip("sympy")


def names(n):
    return [f"a{i}" for i in range(n + 1)] + [f"b{i}" for i in range(n - 1)]


def oracle_series(n, fixed):
    """Coefficients in t of res(f_n, x f_n' + t x f_m) / (a_0 a_n) at y = 1,
    with the sign (-1)^(n*n) of signed_resultant; coefficients not in fixed
    are symbols."""
    X, T = sympy.symbols("X T")
    c = [fixed.get(v, sympy.Symbol(v)) for v in names(n)]
    a, b = c[:n + 1], c[n + 1:]
    f = sum(ai * X ** i for i, ai in enumerate(a))
    f_m = sum(bi * X ** i for i, bi in enumerate(b))
    res = sympy.resultant(f, sympy.expand(X * sympy.diff(f, X) + T * X * f_m), X)
    quotient, remainder = sympy.div(sympy.expand((-1) ** n * res), a[0] * a[n])
    assert remainder == 0
    series = sympy.Poly(quotient, T)
    return [series.coeff_monomial(T ** r) for r in range(n + 1)]


def as_sympy(p: MultiPoly):
    total = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, k in zip(p.variables, exps):
            term *= sympy.Symbol(v) ** k
        total += term
    return total


def symbolic_series(n, fixed):
    coeffs = [MultiPoly.constant(fixed[v]) if v in fixed
              else MultiPoly.variable(v) for v in names(n)]
    return dr_series(BinaryForm.from_coeffs(coeffs[:n + 1]),
                     BinaryForm.from_coeffs(coeffs[n + 1:]),
                     mode="symbolic").entries


@pytest.mark.parametrize("n, k, seed", [(2, 0, 0), (3, 0, 0), (4, 5, 1),
                                        (4, 5, 2), (4, 5, 3)])
def test_symbolic_series_matches_sympy_resultant(n, k, seed):
    # k of the 2n coefficients are fixed to seeded nonzero integers
    rng = random.Random(seed)
    fixed = {v: rng.choice([-5, -3, -2, -1, 1, 2, 4, 7])
             for v in rng.sample(names(n), k)}
    entries = symbolic_series(n, fixed)
    expected = oracle_series(n, fixed)
    assert len(entries) == len(expected) == n + 1
    for r, (got, want) in enumerate(zip(entries, expected)):
        assert sympy.expand(as_sympy(got) - want) == 0, f"r={r}"
