"""The DR series against a rational-arithmetic reference.

The reference below is the direct computation over the rationals: a
Sylvester matrix padded with Fraction zeros, Bareiss elimination with true
division, samples at t = 0..n divided by a_0*a_n, and Lagrange
interpolation. The library instead clears denominators, works over the
integers and unscales by the grading; both must serialize to the same
bytes.
"""

import json
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from drbracket.binforms import BinaryForm, dr_series
from drbracket.multipoly import MultiPoly
from drbracket.rationals import format_rational


def ref_div(a, b):
    if isinstance(a, MultiPoly) or isinstance(b, MultiPoly):
        return (a + MultiPoly.zero()).exact_div(b + MultiPoly.zero())
    return a / b


def ref_det(M):
    n = len(M)
    A = [list(row) for row in M]
    sign, prev = 1, None
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return A[0][0] * 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        pivot = A[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = A[i][j] * pivot - A[i][k] * A[k][j]
                A[i][j] = num if prev is None else ref_div(num, prev)
        prev = pivot
    return A[-1][-1] * sign


def ref_signed_resultant(f, g):
    d, e = len(f) - 1, len(g) - 1
    zero = F(0)
    M = [[zero] * s + f[::-1] + [zero] * (e - 1 - s) for s in range(e)]
    M += [[zero] * s + g[::-1] + [zero] * (d - 1 - s) for s in range(d)]
    det = ref_det(M)
    return -det if (d * e) % 2 else det


def ref_lagrange(samples):
    nodes = [x for x, _ in samples]
    coeffs = [None] * len(samples)
    for i, (xi, vi) in enumerate(samples):
        basis, denom = [F(1)], F(1)
        for j, xj in enumerate(nodes):
            if j != i:
                denom *= xi - xj
                nxt = [F(0)] * (len(basis) + 1)
                for k, b in enumerate(basis):
                    nxt[k] += -xj * b
                    nxt[k + 1] += b
                basis = nxt
        for k, b in enumerate(basis):
            c = vi * (b / denom)
            coeffs[k] = c if coeffs[k] is None else coeffs[k] + c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def ref_dr_series_json(fn, fm):
    n = len(fn) - 1
    denom = fn[0] * fn[-1]
    xdx = [c * F(i) for i, c in enumerate(fn)]
    samples = []
    for t in range(n + 1):
        g = list(xdx)
        for j in range(1, n):
            g[j] = g[j] + fm[j - 1] * F(t)
        samples.append((F(t), ref_div(ref_signed_resultant(fn, g), denom)))
    entries = ref_lagrange(samples)
    entries += [entries[0] * 0] * (n + 1 - len(entries))
    return {"n": n, "entries": [e.to_json() if isinstance(e, MultiPoly)
                                else format_rational(e) for e in entries]}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


rationals = st.builds(F, st.integers(-40, 40),
                      st.sampled_from([1, 1, 2, 3, 4, 6, 7, 9]))
nonzero = rationals.filter(bool)


@st.composite
def form_pairs(draw, n_max=8):
    n = draw(st.integers(2, n_max))
    fn = [draw(nonzero)] + [draw(rationals) for _ in range(n - 1)] + [draw(nonzero)]
    fm = [draw(rationals) for _ in range(n - 1)]
    return fn, fm


@st.composite
def mixed_form_pairs(draw):
    """Rational forms with one coefficient replaced by a MultiPoly."""
    fn, fm = draw(form_pairs(n_max=5))
    slot = draw(st.integers(0, len(fn) + len(fm) - 1))
    poly = MultiPoly.variable("s") + draw(rationals)
    if slot < len(fn):
        fn[slot] = poly
    else:
        fm[slot - len(fn)] = poly
    return fn, fm


def check_against_reference(fn, fm):
    got = dr_series(BinaryForm.from_coeffs(fn), BinaryForm.from_coeffs(fm))
    assert canonical(got.to_json()) == canonical(ref_dr_series_json(fn, fm))


@settings(max_examples=40, deadline=None)
@given(form_pairs())
@example(([F(-3, 2), F(0), F(5)], [F(7, 3)]))
@example(([F(4, 1), F(-1, 1), F(2, 1), F(-6, 1)], [F(-5, 1), F(3, 1)]))
@example(([F(1), F(-2), F(1)], [F(0)]))
def test_rational_forms_match_reference(pair):
    check_against_reference(*pair)


@settings(max_examples=15, deadline=None)
@given(mixed_form_pairs())
@example(([F(2), F(1, 3), F(-1)], [MultiPoly.variable("s")]))
@example(([MultiPoly.variable("s"), F(1, 2), F(3), F(-1)], [F(2), F(5, 7)]))
def test_mixed_forms_stay_symbolic(pair):
    fn, fm = pair
    got = dr_series(BinaryForm.from_coeffs(fn), BinaryForm.from_coeffs(fm))
    assert all(isinstance(e, MultiPoly) for e in got.entries)
    check_against_reference(fn, fm)
