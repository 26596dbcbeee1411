"""The DR series against a rational-arithmetic reference.

The reference below is the direct computation over the rationals: a
Sylvester matrix padded with zeros, Bareiss elimination with true
division, samples at t = 0..n divided by a_0*a_n, and Lagrange
interpolation. The library instead clears denominators, works over the
integers and unscales by the grading; both must serialize to the same
bytes. Forms with a MultiPoly coefficient are run through the same
reference over Z[s], every coefficient lifted to a MultiPoly.
"""

import json
import math
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from drbracket.binforms import BinaryForm, dr_series
from drbracket.multipoly import MultiPoly
from drbracket.rationals import format_rational


def ref_div(a, b):
    if isinstance(a, MultiPoly) or isinstance(b, MultiPoly):
        return (a + MultiPoly.zero()).exact_div(b + MultiPoly.zero())
    return F(a) / b


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
    M = [[0] * s + f[::-1] + [0] * (e - 1 - s) for s in range(e)]
    M += [[0] * s + g[::-1] + [0] * (d - 1 - s) for s in range(d)]
    det = ref_det(M)
    return -det if (d * e) % 2 else det


def ref_lagrange(samples):
    """Lagrange interpolation with the basis weights brought to their common
    denominator L, so that sums stay in the values' ring and each
    coefficient ends with one exact division by L."""
    nodes = [x for x, _ in samples]
    bases = []
    for i, xi in enumerate(nodes):
        basis, denom = [1], 1
        for j, xj in enumerate(nodes):
            if j != i:
                denom *= xi - xj
                nxt = [0] * (len(basis) + 1)
                for k, b in enumerate(basis):
                    nxt[k] += -xj * b
                    nxt[k + 1] += b
                basis = nxt
        bases.append((basis, denom))
    L = math.lcm(*(denom for _, denom in bases))
    coeffs = [0] * len(samples)
    for (basis, denom), (_, vi) in zip(bases, samples):
        for k, b in enumerate(basis):
            coeffs[k] = coeffs[k] + vi * (b * (L // denom))
    coeffs = [ref_div(c, L) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def ref_dr_series_json(fn, fm):
    n = len(fn) - 1
    denom = fn[0] * fn[-1]
    xdx = [c * i for i, c in enumerate(fn)]
    samples = []
    for t in range(n + 1):
        g = list(xdx)
        for j in range(1, n):
            g[j] = g[j] + fm[j - 1] * t
        samples.append((t, ref_div(ref_signed_resultant(fn, g), denom)))
    entries = ref_lagrange(samples)
    entries += [entries[0] * 0] * (n + 1 - len(entries))
    return {"n": n, "entries": [e.to_json() if isinstance(e, MultiPoly)
                                else format_rational(e) for e in entries]}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


rationals = st.builds(F, st.integers(-40, 40),
                      st.sampled_from([1, 1, 2, 3, 4, 6, 7, 9]))
integers = st.integers(-40, 40)


@st.composite
def form_pairs(draw, n_max=8, scalars=rationals):
    n = draw(st.integers(2, n_max))
    nonzero = scalars.filter(bool)
    fn = [draw(nonzero)] + [draw(scalars) for _ in range(n - 1)] + [draw(nonzero)]
    fm = [draw(scalars) for _ in range(n - 1)]
    return fn, fm


@st.composite
def mixed_form_pairs(draw):
    """Integer forms with one coefficient replaced by a MultiPoly (a form
    cannot mix a MultiPoly with a Fraction)."""
    fn, fm = draw(form_pairs(n_max=5, scalars=integers))
    slot = draw(st.integers(0, len(fn) + len(fm) - 1))
    poly = MultiPoly.variable("s") + draw(integers)
    if slot < len(fn):
        fn[slot] = poly
    else:
        fm[slot - len(fn)] = poly
    return fn, fm


def check_against_reference(fn, fm, ref_fn=None, ref_fm=None):
    got = dr_series(BinaryForm.from_coeffs(fn), BinaryForm.from_coeffs(fm))
    want = ref_dr_series_json(ref_fn or fn, ref_fm or fm)
    assert canonical(got.to_json()) == canonical(want)
    return got


@settings(max_examples=40, deadline=None)
@given(form_pairs())
@example(([F(-3, 2), F(0), F(5)], [F(7, 3)]))
@example(([F(4, 1), F(-1, 1), F(2, 1), F(-6, 1)], [F(-5, 1), F(3, 1)]))
@example(([F(1), F(-2), F(1)], [F(0)]))
def test_rational_forms_match_reference(pair):
    check_against_reference(*pair)


@settings(max_examples=15, deadline=None)
@given(mixed_form_pairs())
@example(([2, 3, -1], [MultiPoly.variable("s")]))
@example(([MultiPoly.variable("s"), 1, 3, -1], [2, 5]))
def test_mixed_forms_stay_symbolic(pair):
    fn, fm = pair
    lifted = ([c + MultiPoly.zero() for c in cs] for cs in pair)
    got = check_against_reference(fn, fm, *lifted)
    assert all(isinstance(e, MultiPoly) for e in got.entries)
