import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drbracket import binforms
from drbracket.binforms import (BinaryForm, NumericDegenerateError,
                                bezout_matrix, det_by_minors,
                                det_fraction_free, discriminant, dr_series,
                                signed_resultant, sl2_transform,
                                sylvester_matrix)
from drbracket.multipoly import MultiPoly, exact_div, interpolate_in_t
from drbracket.rationals import DualScalar
from test_reference import ref_det, ref_lagrange


def form_from_roots(pairs):
    """prod (u*x - v*y), coefficients expanded exactly."""
    coeffs = [F(1)]
    for u, v in pairs:
        nxt = [F(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c * u
            nxt[j] += -c * v
        coeffs = nxt
    return BinaryForm.from_coeffs(coeffs)


def rand_form(rng, degree, require_ends=False):
    while True:
        coeffs = [F(rng.randint(-9, 9)) for _ in range(degree + 1)]
        if any(coeffs) and (not require_ends or (coeffs[0] and coeffs[-1])):
            return BinaryForm.from_coeffs(coeffs)


def partly_fixed_forms(n, k, seed):
    """f_n and f_{n-2} over MultiPoly, k of their 2n coefficients fixed to
    seeded nonzero constants and the others the variables a_i, b_i, as in
    the benchmark's symbolic workload."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(n + 1)] + [f"b{i}" for i in range(n - 1)]
    fixed = set(rng.sample(names, k))
    coeffs = [MultiPoly.constant(rng.choice([-9, -7, -4, -2, -1, 1, 3, 5, 8]))
              if v in fixed else MultiPoly.variable(v) for v in names]
    return (BinaryForm.from_coeffs(coeffs[:n + 1]),
            BinaryForm.from_coeffs(coeffs[n + 1:]))


def bracket(p, q):
    return p[0] * q[1] - q[0] * p[1]


def as_xy(form):
    """The form written out as a MultiPoly in x and y."""
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    m = form.degree
    return sum((c * x ** i * y ** (m - i)
                for i, c in enumerate(form.coefficients)), MultiPoly.zero())


def xy_coefficients(p, degree):
    """The coefficients of x^j*y^(degree-j), j = 0..degree, of a MultiPoly
    that is a form of that degree in x and y over its other variables."""
    vs = p.variables
    rest = tuple(v for v in vs if v not in ("x", "y"))
    out = [{} for _ in range(degree + 1)]
    for exps, c in p.terms.items():
        powers = dict(zip(vs, exps))
        assert powers.get("x", 0) + powers.get("y", 0) == degree
        out[powers.get("x", 0)][tuple(powers[v] for v in rest)] = c
    return [MultiPoly(rest, terms) for terms in out]


def euler_pair(f, g, t):
    """h_t = f_x + t*y*g and k_t = f_y - t*x*g, degree-(n-1) forms built
    from f and g written out in x and y and differentiated."""
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    fxy, gxy = as_xy(f), as_xy(g)
    h = fxy.derivative("x") + t * y * gxy
    k = fxy.derivative("y") - t * x * gxy
    return tuple(BinaryForm.from_coeffs(xy_coefficients(p, f.degree - 1))
                 for p in (h, k))


def permutation_det(M):
    """The determinant as the signed sum over all permutations."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term = term * M[i][perm[i]]
        total = total + term
    return total


class TestSylvester:
    def test_degree_one_pair(self):
        a = MultiPoly.variable("a")
        b = MultiPoly.variable("b")
        f = BinaryForm.from_coeffs((-a, MultiPoly.constant(1)))  # x - a*y
        g = BinaryForm.from_coeffs((-b, MultiPoly.constant(1)))
        M = sylvester_matrix(f, g)
        assert M == [[MultiPoly.constant(1), -a],
                     [MultiPoly.constant(1), -b]]
        assert det_fraction_free(M) == a - b

    def test_size(self):
        f = BinaryForm.generic(3)
        g = BinaryForm.generic(2, "b")
        M = sylvester_matrix(f, g)
        assert len(M) == 5 and all(len(row) == 5 for row in M)

    def test_zero_form_rejected(self):
        z = BinaryForm.from_coeffs((F(0), F(0)))
        with pytest.raises(ValueError):
            sylvester_matrix(z, BinaryForm.generic(1))


class TestDeterminant:
    def test_identity(self):
        I4 = [[int(i == j) for j in range(4)] for i in range(4)]
        assert det_fraction_free(I4) == 1

    def test_repeated_row(self):
        a = MultiPoly.variable("a")
        M = [[a, a + 1], [a, a + 1]]
        assert det_fraction_free(M).is_zero

    def test_needs_pivot_swap(self):
        M = [[0, 1], [1, 0]]
        assert det_fraction_free(M) == -1

    def test_fraction_matrix_is_refused(self):
        # Fractions are cleared before any determinant; one that gets here
        # meets TypeError at the first exact division
        M = [[F(1, 2), F(1), F(0)], [F(1), F(3), F(1)], [F(0), F(1), F(2)]]
        with pytest.raises(TypeError):
            det_fraction_free(M)

    @pytest.mark.parametrize("M", [
        [[F(1, 2)]],
        [[F(2)]],
        [[1, F(1, 2)], [3, 4]],
        [[F(0), 1], [0, 2]],
        [[1, 2, 0], [3, F(1, 2), 1], [0, 1, 2]],
        # a column of zeros ends the elimination before any division
        [[0, F(1, 2), 1], [0, 1, 0], [0, 0, 1]],
        [[1, 2, 3], [2, 4, F(6)], [3, 6, 9]],
        # persymmetric: a proper Fraction and its mirror image, read by the
        # symmetric pass; and an integral one whose mirror image is an int,
        # so that the pass, which reads only one of the two, is not taken
        [[F(1, 2), 2, 4], [3, 5, 2], [6, 3, F(1, 2)]],
        [[1, 2, 4], [3, 5, 2], [6, 3, F(1)]],
        [[1, F(1, 2), 2, 4], [3, 5, 2, 2], [0, 1, 5, F(1, 2)],
         [7, 0, 3, 1]],
    ], ids=["order1", "order1-integral", "order2", "order2-singular",
            "order3", "order3-zero-column", "order3-zero-second-column",
            "order3-persymmetric", "order3-persymmetric-int-mirror",
            "order4-persymmetric"])
    def test_one_fraction_is_refused_at_every_order(self, M):
        with pytest.raises(TypeError):
            det_fraction_free(M)

    def test_matches_permutation_expansion(self):
        rng = random.Random(3)
        M = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        assert det_fraction_free(M) == permutation_det(M)


def is_persymmetric(M):
    n = len(M)
    return all(M[i][j] == M[n - 1 - j][n - 1 - i]
               for i in range(n) for j in range(n))


@st.composite
def persymmetric_matrices(draw, entries, max_order):
    """Matrices of order 1..max_order with M[i][j] == M[n-1-j][n-1-i]:
    each entry on or above the anti-diagonal is drawn, the rest mirrored."""
    n = draw(st.integers(1, max_order))
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n - i):
            M[i][j] = M[n - 1 - j][n - 1 - i] = draw(entries)
    return M


small_ints = st.integers(-3, 3)
duals = st.builds(DualScalar, small_ints, small_ints)
form_coeffs = st.lists(st.integers(-9, 9), min_size=2, max_size=10)


def reversal(n):
    """J, the order-n matrix of ones on the anti-diagonal."""
    return [[int(i + j == n - 1) for j in range(n)] for i in range(n)]


def general_det(M):
    """det_fraction_free with the symmetric pass switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binforms, "_det_persymmetric", lambda M: None)
        return det_fraction_free(M)


class TestPersymmetric:
    """Bareiss on the symmetric S = M*J for persymmetric M: the equal-degree
    Bezout matrices, and a fallback to the general elimination."""

    @settings(max_examples=100, deadline=None)
    @given(form_coeffs, st.data())
    def test_equal_degree_int_bezoutians(self, f, data):
        g = data.draw(st.lists(st.integers(-9, 9), min_size=len(f),
                               max_size=len(f)))
        M = bezout_matrix(BinaryForm.from_coeffs(f), BinaryForm.from_coeffs(g))
        assert is_persymmetric(M)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(duals, min_size=2, max_size=7), st.data())
    def test_equal_degree_dual_bezoutians(self, f, data):
        g = data.draw(st.lists(duals, min_size=len(f), max_size=len(f)))
        M = bezout_matrix(BinaryForm.from_coeffs(f), BinaryForm.from_coeffs(g))
        assert is_persymmetric(M)

    @pytest.mark.parametrize("d", range(1, 5))
    def test_equal_degree_generic_bezoutians(self, d):
        f = BinaryForm.generic(d)
        for g in (BinaryForm.generic(d, "b"), f.x_dx()):
            M = bezout_matrix(f, g)
            assert is_persymmetric(M)
            assert binforms._det_persymmetric(M) == det_by_minors(M)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_equal_degree_partly_fixed_bezoutians(self, d):
        # the fixed coefficients enter as ints, among MultiPoly entries; an
        # entry may be an int where its mirror image is a constant MultiPoly
        # of the same value, so the symmetric pass need not take it
        for k in (1, d, 2 * d):
            f, g = partly_fixed_forms(d + 2, k, 90 + 10 * d + k)
            (f,), _, _ = binforms._one_ring((BinaryForm.from_coeffs(
                f.coefficients[:d + 1]),))
            M = bezout_matrix(f, f.x_dx())
            assert is_persymmetric(M)
            assert det_fraction_free(M) == det_by_minors(M)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_equal_degree_cleared_fraction_bezoutians(self, d):
        rng = random.Random(70 + d)
        forms = [BinaryForm.from_coeffs(_fraction_coeffs(rng, d + 1, ""))
                 for _ in range(2)]
        (f, g), _, _ = binforms._one_ring(forms)
        assert all(type(c) is int for c in f.coefficients + g.coefficients)
        assert is_persymmetric(bezout_matrix(f, g))
        assert is_persymmetric(bezout_matrix(*forms))

    @settings(max_examples=60, deadline=None)
    @given(persymmetric_matrices(small_ints, 8))
    @example([[1, 1], [1, 1]])                       # singular
    @example([[2, 1, 2], [4, 2, 1], [2, 4, 2]])      # singular
    @example(reversal(1))
    @example(reversal(6))
    @example(reversal(7))
    @example([[2, 1, 0], [3, 0, 1], [0, 3, 2]])      # zero first pivot
    @example([[2, 1, 1], [3, 1, 1], [5, 3, 2]])      # zero second pivot
    def test_int_matrices_match_permutation_det(self, M):
        det = permutation_det(M)
        assert det_fraction_free(M) == det
        assert binforms._det_persymmetric(M) in (None, det)

    @pytest.mark.parametrize("M", [
        [[2, 1, 0], [3, 0, 1], [0, 3, 2]],               # zero first pivot
        [[2, 1, 1], [3, 1, 1], [5, 3, 2]],               # zero second pivot
        # a mirror pair that compares equal, of two classes
        [[1, 2, 4], [3, 5, 2], [6, 3, DualScalar(1)]],
    ], ids=["first-pivot", "second-pivot", "two-classes"])
    def test_general_elimination_takes_over(self, M):
        assert binforms._det_persymmetric(M) is None
        assert det_fraction_free(M) == permutation_det(M)

    @settings(max_examples=150, deadline=None)
    @given(persymmetric_matrices(duals, 6))
    def test_dual_matrices_match_the_general_path(self, M):
        # DualScalar's == compares the value and the derivative
        det = binforms._det_persymmetric(M)
        try:
            want = general_det(M)
        except NumericDegenerateError:
            # no unit pivot in some column for the general elimination; a
            # diagonal of them in S still gives the exact determinant
            want = permutation_det(M)
        else:
            assert det_fraction_free(M) == want
        assert det is None or det == want

    def test_dual_matrix_without_a_unit_pivot_is_refused(self):
        e = DualScalar(0, 1)
        for M in ([[e, DualScalar(0, 3)], [DualScalar(0, 2), e]],
                  [[e, DualScalar(1), e], [e, e, DualScalar(1)],
                   [e, e, e]]):
            with pytest.raises(NumericDegenerateError):
                det_fraction_free(M)

    @pytest.mark.parametrize("kind", ["int", "fraction", "dual"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_numeric_series_takes_the_symmetric_path(self, monkeypatch, n,
                                                     kind):
        # every sample det Bez(h_t, k_t) of a numeric series is persymmetric
        # with unit diagonal pivots here, so none of them falls back
        rng = random.Random(200 + n)
        make = {"int": int, "fraction": lambda c: F(c, 3),
                "dual": lambda c: DualScalar(c, rng.randint(-2, 2))}[kind]
        f = BinaryForm.from_coeffs([make(rng.randint(1, 9))
                                    for _ in range(n + 1)])
        g = BinaryForm.from_coeffs([make(rng.randint(-9, 9))
                                    for _ in range(n - 1)])
        symmetric, results, orders = binforms._det_persymmetric, [], []

        def recording(M):
            orders.append(len(M))
            results.append(symmetric(M))
            return results[-1]
        monkeypatch.setattr(binforms, "_det_persymmetric", recording)
        series = dr_series(f, g)
        # one Bezout matrix of h_t and k_t, of order n - 1, per sample
        assert orders == [n - 1] * (n + 1)
        assert all(r is not None for r in results)
        monkeypatch.setattr(binforms, "_det_persymmetric", lambda M: None)
        assert dr_series(f, g) == series


def sparse_entry(rng, names):
    """0, a small int, or a MultiPoly of at most three low-degree terms
    over some of the names (so entries sit on different namespaces)."""
    kind = rng.random()
    if kind < 0.15:
        return 0
    if kind < 0.3:
        return rng.choice([-3, -1, 1, 2, 4])
    p = MultiPoly.zero()
    for _ in range(rng.randint(1, 3)):
        mono = MultiPoly.constant(rng.choice([-2, -1, 1, 3]))
        for v in rng.sample(names, rng.randint(0, 2)):
            mono = mono * MultiPoly.variable(v) ** rng.randint(1, 2)
        p = p + mono
    return p


class TestDetByMinors:
    """Expansion by minors against Bareiss (det_fraction_free, the
    reference) and the permutation expansion."""

    @pytest.mark.parametrize("order", range(1, 7))
    def test_random_sparse_matrices(self, order):
        rng = random.Random(100 + order)
        names = ["a0", "a1", "b0", "s", "x"]
        nonzero = 0
        for _ in range(4 if order < 6 else 2):
            M = [[sparse_entry(rng, names) for _ in range(order)]
                 for _ in range(order)]
            det = det_by_minors(M)
            assert isinstance(det, MultiPoly)
            assert det == det_fraction_free(M)
            assert det == permutation_det(M)
            nonzero += not det.is_zero
        assert nonzero

    def test_int_matrix(self):
        rng = random.Random(7)
        M = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(5)]
        assert det_by_minors(M) == det_fraction_free(M) == permutation_det(M)

    @pytest.mark.parametrize("order", range(1, 5))
    def test_int_only_matrices_give_a_multipoly(self, order):
        rng = random.Random(17 + order)
        M = [[rng.randint(-5, 5) for _ in range(order)] for _ in range(order)]
        det = det_by_minors(M)
        assert isinstance(det, MultiPoly) and det.variables == ()
        assert det == det_fraction_free(M) == permutation_det(M)

    # Exponents are packed into fields of 8, 16, 32, ... bits whose top
    # bit is a guard, sized for order * top; the cases sit just below and
    # just above the guard bits of 8-, 16- and 64-bit fields and the byte
    # boundaries, and the diagonal's x^top * y reaches the bound in x, next
    # to y's field, so a carry out of x's field would change y's exponent.
    @pytest.mark.parametrize("order, top", [
        (1, 255), (1, 256), (4, 63), (4, 64), (4, 16383), (4, 16384),
        (4, 2 ** 62 - 1), (4, 2 ** 62), (1, 127), (1, 128), (4, 31), (4, 32),
        (4, 8191), (4, 8192), (4, 2 ** 61 - 1), (4, 2 ** 61)], ids=[
        "order1-255", "order1-256", "order4-63", "order4-64", "order4-16383",
        "order4-16384", "order4-2^62-1", "order4-2^62", "order1-127",
        "order1-128", "order4-31", "order4-32", "order4-8191", "order4-8192",
        "order4-2^61-1", "order4-2^61"])
    def test_fields_at_byte_boundaries(self, order, top):
        rng = random.Random(order * 1000 + top % 997)
        u, x, y, z = (MultiPoly.variable(v) for v in "uxyz")
        for _ in range(3):
            M = [[sum(rng.choice([-2, -1, 1, 3]) * v ** rng.choice([1, top - 1])
                      for v in rng.sample([u, x, y, z], rng.randint(1, 3)))
                  for _ in range(order)] for _ in range(order)]
            for i in range(order):
                M[i][i] = M[i][i] + x ** top * y
            det = det_by_minors(M)
            assert det == det_fraction_free(M)
            assert det == permutation_det(M)
            ix, iy = det.variables.index("x"), det.variables.index("y")
            assert det.terms[tuple(
                order * top if i == ix else order if i == iy else 0
                for i in range(len(det.variables)))] == 1
            assert max(e[ix] for e in det.terms) == order * top

    def test_keys_wider_than_64_bits(self):
        # each entry holds a monomial in three names of its own, so the
        # namespace has 3 * order^2 = 48 variables, one byte each
        order = 4
        rng = random.Random(204)
        names = [f"v{i:02d}" for i in range(3 * order * order)]
        M = [[sparse_entry(rng, names) for _ in range(order)]
             for _ in range(order)]
        for i in range(order):
            for j in range(order):
                k = 3 * (i * order + j)
                M[i][j] = M[i][j] + (MultiPoly.variable(names[k])
                                     * MultiPoly.variable(names[k + 1])
                                     * MultiPoly.variable(names[k + 2]) ** 2)
        det = det_by_minors(M)
        assert len(det.variables) >= 40
        assert not det.is_zero
        assert det == det_fraction_free(M)
        assert det == permutation_det(M)
        M[order - 1] = list(M[0])
        assert det_by_minors(M).is_zero
        M[0] = [0] * order
        assert det_by_minors(M).is_zero

    def test_empty_matrix_is_one(self):
        assert det_by_minors([]) == det_fraction_free([]) == 1

    def test_zero_row(self):
        rng = random.Random(11)
        for k in range(4):
            M = [[sparse_entry(rng, ["a", "b"]) for _ in range(4)]
                 for _ in range(4)]
            M[k] = [0, MultiPoly.zero(), 0, MultiPoly.zero()]
            assert det_by_minors(M).is_zero

    def test_repeated_row(self):
        a, b = MultiPoly.variable("a"), MultiPoly.variable("b")
        assert det_by_minors([[a, a + 1], [a, a + 1]]).is_zero
        rng = random.Random(13)
        M = [[sparse_entry(rng, ["a", "b", "c"]) for _ in range(5)]
             for _ in range(4)]
        M.insert(2, list(M[0]))
        assert det_by_minors(M).is_zero
        M[2][3] = M[2][3] + b
        assert det_by_minors(M) == det_fraction_free(M) != 0

    def test_different_namespaces(self):
        x, y, z = (MultiPoly.variable(v) for v in "xyz")
        M = [[x, y, 2], [1, z, x * y], [y + z, 0, x - 1]]
        det = det_by_minors(M)
        assert det == permutation_det(M)
        # by the rule of Sarrus
        assert det == (x * z * (x - 1) + x * y ** 2 * (y + z)
                       - 2 * z * (y + z) - y * (x - 1))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_fraction_entry_is_refused(self, order):
        M = [[MultiPoly.variable("a") if i == j else 1 for j in range(order)]
             for i in range(order)]
        M[order - 1][0] = F(1, 2)
        with pytest.raises(TypeError):
            det_by_minors(M)

    def test_dual_entry_is_refused(self):
        with pytest.raises(TypeError):
            det_by_minors([[MultiPoly.variable("a"), DualScalar(1, 1)],
                           [1, 2]])

    def test_not_square(self):
        with pytest.raises(ValueError):
            det_by_minors([[1, 2], [3]])


class TestKernelChoice:
    """Each computation picks its determinant once: minors for MultiPoly
    forms, Bareiss for ints, Fractions (cleared to ints) and dual numbers."""

    @staticmethod
    def _count(monkeypatch, orders=None):
        """Counts each kernel's calls; orders, a dict of lists keyed like
        the counts, if given, also gets the order of every matrix."""
        calls = {"bareiss": 0, "minors": 0}

        def counting(name, fn):
            def wrapper(M):
                calls[name] += 1
                if orders is not None:
                    orders[name].append(len(M))
                return fn(M)
            return wrapper
        monkeypatch.setattr(binforms, "det_fraction_free",
                            counting("bareiss", binforms.det_fraction_free))
        monkeypatch.setattr(binforms, "det_by_minors",
                            counting("minors", binforms.det_by_minors))
        return calls

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_symbolic_series_never_runs_bareiss(self, monkeypatch, n):
        # MultiPoly forms keep the order-n pencil B0 + t*B1
        orders = {"bareiss": [], "minors": []}
        calls = self._count(monkeypatch, orders)
        dr_series(BinaryForm.generic(n), BinaryForm.generic(n - 2, "b"),
                  mode="symbolic")
        assert calls == {"bareiss": 0, "minors": n + 1}
        assert orders["minors"] == [n] * (n + 1)

    @pytest.mark.parametrize("k", ["one", "n", "all but one", "all"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_partly_fixed_series_never_runs_bareiss(self, monkeypatch, n, k):
        # fixed coefficients enter as ints, yet the determinant stays the
        # expansion by minors, so every entry stays a MultiPoly
        k = {"one": 1, "n": n, "all but one": 2 * n - 1, "all": 2 * n}[k]
        f, g = partly_fixed_forms(n, k, 300 + 10 * n + k)
        orders = {"bareiss": [], "minors": []}
        calls = self._count(monkeypatch, orders)
        series = dr_series(f, g, mode="symbolic")
        assert calls == {"bareiss": 0, "minors": n + 1}
        assert orders["minors"] == [n] * (n + 1)
        assert all(type(e) is MultiPoly for e in series.entries)
        disc = discriminant(f)
        assert calls == {"bareiss": 0, "minors": n + 2}
        assert type(disc) is MultiPoly and disc == series.entries[0]

    @pytest.mark.parametrize("kind", [lambda c: c, F])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_numeric_series_runs_bareiss_n_plus_1_times(self, monkeypatch,
                                                        n, kind):
        rng = random.Random(n)
        f = BinaryForm.from_coeffs([kind(rng.randint(1, 9))
                                    for _ in range(n + 1)])
        g = BinaryForm.from_coeffs([kind(rng.randint(-9, 9))
                                    for _ in range(n - 1)])
        orders = {"bareiss": [], "minors": []}
        calls = self._count(monkeypatch, orders)
        dr_series(f, g, mode="numeric")
        assert calls == {"bareiss": n + 1, "minors": 0}
        # one Bezout matrix of h_t and k_t per sample
        assert orders["bareiss"] == [n - 1] * (n + 1)

    def test_dual_series_runs_bareiss(self, monkeypatch):
        f = BinaryForm.from_coeffs([DualScalar(c, int(i == 1))
                                    for i, c in enumerate((2, 3, 5, 7))])
        g = BinaryForm.from_coeffs((DualScalar(1), DualScalar(4)))
        orders = {"bareiss": [], "minors": []}
        calls = self._count(monkeypatch, orders)
        dr_series(f, g)
        assert calls == {"bareiss": 4, "minors": 0}
        assert orders["bareiss"] == [2] * 4

    def test_rational_discriminant_runs_one_bareiss(self, monkeypatch):
        f = BinaryForm.from_coeffs((F(3, 7), F(-5, 2), F(1), F(2, 3)))
        calls = self._count(monkeypatch)
        disc = discriminant(f)
        assert calls == {"bareiss": 1, "minors": 0}
        assert disc == sylvester_resultant(f, f.x_dx()) / (F(3, 7) * F(2, 3))

    def test_rational_resultant_below_runs_one_bareiss(self, monkeypatch):
        # d < e: one Bezout determinant of (g, f), no second pass
        f = BinaryForm.from_coeffs((F(1, 2), F(-3), F(5, 4)))
        g = BinaryForm.from_coeffs((F(2, 3), F(1), F(0), F(-7, 6), F(1, 5)))
        calls = self._count(monkeypatch)
        res = signed_resultant(f, g)
        assert calls == {"bareiss": 1, "minors": 0}
        assert res == sylvester_resultant(f, g) and type(res) is F

    @pytest.mark.parametrize("coeffs", [(5, 0, 0), (0, 1, 1),
                                        (F(1, 2), F(1, 3), F(0))])
    def test_degenerate_discriminant_runs_no_determinant(self, monkeypatch,
                                                         coeffs):
        calls = self._count(monkeypatch)
        with pytest.raises(NumericDegenerateError, match="a_0 \\* a_d = 0"):
            discriminant(BinaryForm.from_coeffs(coeffs))
        assert calls == {"bareiss": 0, "minors": 0}

    def test_resultant_picks_by_its_coefficients(self, monkeypatch):
        calls = self._count(monkeypatch)
        signed_resultant(BinaryForm.generic(3), BinaryForm.generic(2, "b"))
        assert calls == {"bareiss": 0, "minors": 1}
        signed_resultant(BinaryForm.from_coeffs((1, 2, 3, 4)),
                         BinaryForm.from_coeffs((5, 6, 7)))
        assert calls == {"bareiss": 1, "minors": 1}


class TestSignedResultant:
    def test_linear_pair_bracket_oracle(self):
        # res(x - 1y, x - 2y) = [alpha, beta] = 1*2 - 1*1 = 1
        f = form_from_roots([(F(1), F(1))])
        g = form_from_roots([(F(1), F(2))])
        assert signed_resultant(f, g) == 1

    def test_res_with_x_is_a0(self):
        rng = random.Random(5)
        for _ in range(10):
            f = rand_form(rng, 3)
            g = BinaryForm.from_coeffs((F(0), F(1)))  # x
            assert signed_resultant(f, g) == f.coefficients[0]

    def test_common_factor_vanishes(self):
        common = (F(1), F(1))  # x - y
        f = form_from_roots([common, (F(1), F(2))])
        g = form_from_roots([common, (F(1), F(3))])
        assert signed_resultant(f, g) == 0

    def test_degree_zero_argument(self):
        f = BinaryForm.generic(2)
        c = BinaryForm.from_coeffs((MultiPoly.variable("b0"),))
        b0 = MultiPoly.variable("b0")
        assert signed_resultant(f, c) == b0 ** 2

    def test_zero_form_with_degree_zero_form(self):
        # a degree-0 argument is an empty product, even beside a zero form
        zero2 = BinaryForm.from_coeffs((0, 0))
        assert signed_resultant(zero2, BinaryForm.from_coeffs((3,))) == 3
        zero0 = BinaryForm.from_coeffs((0,))
        assert signed_resultant(zero0, BinaryForm.from_coeffs((1, 2, 3))) == 0

    def test_swap_antisymmetry(self):
        rng = random.Random(9)
        for _ in range(20):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            f, g = rand_form(rng, d), rand_form(rng, e)
            lhs = signed_resultant(f, g)
            rhs = signed_resultant(g, f)
            assert lhs == (rhs if (d * e) % 2 == 0 else -rhs)

    def test_multiplicativity(self):
        rng = random.Random(13)
        for _ in range(20):
            f = rand_form(rng, rng.randint(1, 3))
            g = rand_form(rng, rng.randint(1, 2))
            h = rand_form(rng, rng.randint(1, 2))
            gh_coeffs = _mul_forms(g, h)
            assert (signed_resultant(f, gh_coeffs)
                    == signed_resultant(f, g) * signed_resultant(f, h))

    def test_bracket_product_consistency(self):
        rng = random.Random(17)
        for _ in range(20):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            als = [(F(rng.randint(1, 9)), F(rng.randint(-9, 9))) for _ in range(d)]
            bes = [(F(rng.randint(1, 9)), F(rng.randint(-9, 9))) for _ in range(e)]
            f, g = form_from_roots(als), form_from_roots(bes)
            prod = F(1)
            for a in als:
                for b in bes:
                    prod *= bracket(a, b)
            assert signed_resultant(f, g) == prod


def _mul_forms(g, h):
    coeffs = [F(0)] * (g.degree + h.degree + 1)
    for i, ci in enumerate(g.coefficients):
        for j, cj in enumerate(h.coefficients):
            coeffs[i + j] += ci * cj
    return BinaryForm.from_coeffs(coeffs)


def sylvester_resultant(f, g):
    """The reference: (-1)^(d*e) * det of the order-(d+e) Sylvester matrix,
    by Bareiss with true division over the rationals (ref_det) when a
    coefficient is a Fraction, since det_fraction_free takes none."""
    M = sylvester_matrix(f, g)
    if any(isinstance(c, F) for c in f.coefficients + g.coefficients):
        det = ref_det([[F(c) for c in row] for row in M])
    else:
        det = det_fraction_free(M)
    return -det if (f.degree * g.degree) % 2 else det


def _int_coeffs(rng, k, name):
    return [rng.randint(-9, 9) for _ in range(k)]


def _fraction_coeffs(rng, k, name):
    return [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]


def _partly_symbolic_coeffs(rng, k, name):
    # integers, with one coefficient replaced by a symbol
    coeffs = [MultiPoly.constant(rng.randint(-9, 9)) for _ in range(k)]
    coeffs[rng.randrange(k)] = MultiPoly.variable(name)
    return coeffs


COEFFICIENT_KINDS = [_int_coeffs, _fraction_coeffs, _partly_symbolic_coeffs]


def _random_pair(rng, d, e, coeffs):
    while True:
        f = BinaryForm.from_coeffs(coeffs(rng, d + 1, "s"))
        g = BinaryForm.from_coeffs(coeffs(rng, e + 1, "u"))
        if not (f.is_zero() or g.is_zero()):
            return f, g


def _common_root_pair(rng, d, e, coeffs):
    """Forms of degrees d and e that share the factor u*x - v*y."""
    u, v = rng.randint(1, 3), rng.randint(-3, 3)

    def times_factor(rest):
        out = [0] * (len(rest) + 1)
        for j, c in enumerate(rest):
            out[j + 1] = out[j + 1] + c * u
            out[j] = out[j] - c * v
        return BinaryForm.from_coeffs(out)
    while True:
        f = times_factor(coeffs(rng, d, "s"))
        g = times_factor(coeffs(rng, e, "u"))
        if not (f.is_zero() or g.is_zero()):
            return f, g


class TestBezout:
    def test_shifted_rows_come_first(self):
        f = BinaryForm.from_coeffs([1, 2, 3, 4, 5])
        g = BinaryForm.from_coeffs([6, 7])
        B = bezout_matrix(f, g)
        assert len(B) == 4 and all(len(row) == 4 for row in B)
        assert B[:3] == [[6, 7, 0, 0], [0, 6, 7, 0], [0, 0, 6, 7]]

    def test_degree_one_pair(self):
        # f = a0*y + a1*x, g = b0*y + b1*x: one Bezout row -c_{1,0}
        a0, a1, b0, b1 = map(MultiPoly.variable, ("a0", "a1", "b0", "b1"))
        B = bezout_matrix(BinaryForm.from_coeffs((a0, a1)),
                          BinaryForm.from_coeffs((b0, b1)))
        assert B == [[a0 * b1 - a1 * b0]]

    def test_linear_in_second_form(self):
        rng = random.Random(45)
        for d in range(1, 7):
            for e in range(1, d + 1):
                f = BinaryForm.from_coeffs(_int_coeffs(rng, d + 1, ""))
                g = _int_coeffs(rng, e + 1, "")
                h = _int_coeffs(rng, e + 1, "")
                t = rng.randint(-5, 5)
                lhs = bezout_matrix(f, BinaryForm.from_coeffs(
                    [x + t * y for x, y in zip(g, h)]))
                B0 = bezout_matrix(f, BinaryForm.from_coeffs(g))
                B1 = bezout_matrix(f, BinaryForm.from_coeffs(h))
                assert lhs == [[u + t * v for u, v in zip(r0, r1)]
                               for r0, r1 in zip(B0, B1)]

    def test_zero_second_form(self):
        B = bezout_matrix(BinaryForm.from_coeffs([1, 2, 3]),
                          BinaryForm.from_coeffs([0, 0, 0]))
        assert B == [[0, 0], [0, 0]]

    def test_second_degree_must_not_exceed_first(self):
        with pytest.raises(ValueError):
            bezout_matrix(BinaryForm.generic(2), BinaryForm.generic(3, "b"))
        with pytest.raises(ValueError):
            bezout_matrix(BinaryForm.generic(2), BinaryForm.from_coeffs([1]))


class TestResultantMatchesSylvester:
    """signed_resultant (Bezout, order max(d, e)) against the Sylvester
    determinant, for every pair of degrees 1 <= d, e <= 7."""

    DEGREES = [(d, e) for d in range(1, 8) for e in range(1, 8)]

    @pytest.mark.parametrize("coeffs", COEFFICIENT_KINDS)
    def test_random_pairs(self, coeffs):
        rng = random.Random(51)
        for d, e in self.DEGREES:
            f, g = _random_pair(rng, d, e, coeffs)
            assert signed_resultant(f, g) == sylvester_resultant(f, g), (d, e)

    @pytest.mark.parametrize("coeffs", COEFFICIENT_KINDS)
    def test_common_root_pairs_vanish(self, coeffs):
        rng = random.Random(53)
        for d, e in self.DEGREES:
            f, g = _common_root_pair(rng, d, e, coeffs)
            assert sylvester_resultant(f, g) == 0
            assert signed_resultant(f, g) == 0, (d, e)

    def test_dual_numbers(self):
        # value and derivative both agree; a pair whose value resultant is
        # zero is drawn again, since elimination then has no unit pivot
        rng = random.Random(55)
        for d, e in self.DEGREES:
            while True:
                f, g = (BinaryForm.from_coeffs(
                    [DualScalar(rng.randint(-9, 9), rng.randint(-3, 3))
                     for _ in range(k + 1)]) for k in (d, e))
                values = [BinaryForm.from_coeffs(
                    [c.value for c in h.coefficients]) for h in (f, g)]
                if sylvester_resultant(*values) != 0:
                    break
            got, want = signed_resultant(f, g), sylvester_resultant(f, g)
            assert (got.value, got.derivative) == (want.value, want.derivative)
            assert got.value == signed_resultant(*values)


class TestDiscriminant:
    def test_generic_degree_two(self):
        a0, a1, a2 = (MultiPoly.variable(f"a{i}") for i in range(3))
        f = BinaryForm.generic(2)
        assert discriminant(f) == a0 * a2 * 4 - a1 ** 2

    def test_three_rational_roots(self):
        f = form_from_roots([(F(1), F(1)), (F(1), F(2)), (F(1), F(3))])
        assert discriminant(f) == -4

    def test_multiple_factor_vanishes(self):
        f = form_from_roots([(F(1), F(1)), (F(1), F(1))])
        assert discriminant(f) == 0

    def test_bracket_product(self):
        rng = random.Random(21)
        for d in range(2, 7):
            als = [(F(rng.randint(1, 9)), F(rng.randint(1, 9) * rng.choice((1, -1))))
                   for _ in range(d)]
            f = form_from_roots(als)
            prod = F(1)
            for i in range(d):
                for j in range(d):
                    if i != j:
                        prod *= bracket(als[i], als[j])
            assert discriminant(f) == prod

    def test_rational_forms_match_sylvester(self):
        # a rational form is cleared, and its discriminant unscaled by
        # lambda^(2d-2); the reference divides the Sylvester resultant
        rng = random.Random(19)
        for d in range(2, 7):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(d + 1)]
            coeffs[0] = coeffs[-1] = F(rng.choice((-5, 1, 3)), rng.randint(2, 6))
            f = BinaryForm.from_coeffs(coeffs)
            want = sylvester_resultant(f, f.x_dx()) / (coeffs[0] * coeffs[-1])
            assert discriminant(f) == want and type(discriminant(f)) is F

    def test_numeric_degenerate(self):
        f = BinaryForm.from_coeffs((F(0), F(1), F(1)))
        with pytest.raises(NumericDegenerateError):
            discriminant(f)

    def test_zero_valued_dual_end_coefficient(self):
        # a_0*a_d with a zero value part is degenerate even when its
        # derivative is not, so no exact division by it is tried
        f = BinaryForm.from_coeffs([DualScalar(1), DualScalar(2),
                                    DualScalar(3), DualScalar(0, 1)])
        with pytest.raises(NumericDegenerateError, match="a_0 \\* a_d = 0"):
            discriminant(f)
        rng = random.Random(29)
        for _ in range(50):
            d = rng.randint(2, 5)
            coeffs = [DualScalar(rng.randint(-9, 9), rng.randint(-9, 9))
                      for _ in range(d + 1)]
            end = rng.choice((0, d))
            coeffs[end] = DualScalar(0, rng.randint(-9, 9))
            with pytest.raises(NumericDegenerateError):
                discriminant(BinaryForm.from_coeffs(coeffs))

    def test_zero_multipoly_end_coefficient(self):
        f = BinaryForm.from_coeffs((MultiPoly.constant(0),
                                    MultiPoly.variable("a1"),
                                    MultiPoly.variable("a2")))
        with pytest.raises(NumericDegenerateError):
            discriminant(f)


class TestDRSeries:
    def test_n2_symbolic(self):
        f = BinaryForm.generic(2)
        g = BinaryForm.from_coeffs((MultiPoly.variable("b0"),))
        s = dr_series(f, g, mode="symbolic")
        a0, a1, a2 = (MultiPoly.variable(f"a{i}") for i in range(3))
        b0 = MultiPoly.variable("b0")
        assert s.entries == (a0 * a2 * 4 - a1 ** 2, MultiPoly.zero(), b0 ** 2)

    def test_entry_one_vanishes_numerically(self):
        rng = random.Random(23)
        for n in range(2, 7):
            f = rand_form(rng, n, require_ends=True)
            g = rand_form(rng, n - 2)
            assert dr_series(f, g).entries[1] == 0

    def test_endpoints(self):
        # entry 0 is the discriminant; entry n is the sign-normalized
        # resultant times (-1)^n (the bracket product over [b_k, a_i])
        rng = random.Random(29)
        for n in range(2, 6):
            f = rand_form(rng, n, require_ends=True)
            g = rand_form(rng, n - 2)
            s = dr_series(f, g)
            assert s.entries[0] == discriminant(f)
            res = signed_resultant(f, g)
            assert s.entries[n] == (res if n % 2 == 0 else -res)

    def test_multigrading(self):
        rng = random.Random(31)
        for n in (2, 3, 4):
            f = rand_form(rng, n, require_ends=True)
            g = rand_form(rng, n - 2)
            base = dr_series(f, g)
            lam, mu = F(3, 2), F(-5, 7)
            scaled = dr_series(f.scale(lam), g.scale(mu))
            for r in range(n + 1):
                assert scaled.entries[r] == lam ** (2 * n - 2 - r) * mu ** r * base.entries[r]

    def test_sl2_invariance(self):
        rng = random.Random(37)
        for n in (2, 3, 4, 5):
            f = rand_form(rng, n, require_ends=True)
            g = rand_form(rng, n - 2)
            base = dr_series(f, g)
            for _ in range(5):
                b, c = rng.randint(-3, 3), rng.randint(-3, 3)
                # shear product ((1, b), (0, 1)) @ ((1, 0), (c, 1)); det 1
                mat = (1 + b * c, b, c, 1)
                tf, tg = sl2_transform(f, mat), sl2_transform(g, mat)
                if tf.coefficients[0] == 0 or tf.coefficients[-1] == 0:
                    continue
                assert dr_series(tf, tg).entries == base.entries

    def test_numeric_degenerate(self):
        f = BinaryForm.from_coeffs((F(0), F(1), F(1)))
        with pytest.raises(NumericDegenerateError):
            dr_series(f, BinaryForm.from_coeffs((F(1),)))

    def test_zero_multipoly_end_coefficient(self):
        a = [MultiPoly.variable(f"a{i}") for i in range(4)]
        b = BinaryForm.generic(1, "b")
        for zeroed in (0, 3):
            a_z = list(a)
            a_z[zeroed] = MultiPoly.constant(0)
            with pytest.raises(NumericDegenerateError):
                dr_series(BinaryForm.from_coeffs(a_z), b, mode="symbolic")

    def test_zero_companion(self):
        # f_m = 0 leaves only the discriminant; at n = 2 the companion is
        # the degree-0 form [0]
        rng = random.Random(47)
        for n in range(2, 7):
            f = rand_form(rng, n, require_ends=True)
            zero = BinaryForm.from_coeffs([0] * (n - 1))
            assert dr_series(f, zero).entries == (discriminant(f),) + (0,) * n
        for n in (2, 3):
            f = BinaryForm.generic(n)
            zero = BinaryForm.from_coeffs([MultiPoly.zero()] * (n - 1))
            entries = dr_series(f, zero, mode="symbolic").entries
            assert entries == (discriminant(f),) + (MultiPoly.zero(),) * n

    def test_common_factor_kills_top_entry(self):
        common = (F(1), F(2))
        f = form_from_roots([common, (F(1), F(1)), (F(1), F(3))])
        g = form_from_roots([common])
        assert dr_series(f, g).entries[3] == 0

    def test_json_roundtrip(self):
        f = BinaryForm.from_coeffs((F(1, 2), F(3), F(-1)))
        data = f.to_json()
        assert data == {"degree": 2, "coefficients": ["1/2", "3", "-1"]}
        assert BinaryForm.from_json(data) == f


def sylvester_series(f, g):
    """The order-n reference: res(f, x*f_x + t*x*y*g) / (a_0*a_n) from the
    Sylvester matrix at t = 0..n (sylvester_resultant), interpolated in t;
    Fraction samples by Lagrange over the rationals (ref_lagrange)."""
    n, a = f.degree, f.coefficients
    xy_g = (0,) + tuple(g.coefficients) + (0,)
    samples = []
    for t in range(n + 1):
        second = BinaryForm.from_coeffs(
            [i * c + t * v for i, (c, v) in enumerate(zip(a, xy_g))])
        res = sylvester_resultant(f, second)
        samples.append(res / (a[0] * a[n]) if isinstance(res, F)
                       else exact_div(res, a[0] * a[n]))
    if any(isinstance(v, F) for v in samples):
        entries = ref_lagrange(list(enumerate(samples)))
        return entries + [0] * (n + 1 - len(entries))
    return interpolate_in_t(samples)


@st.composite
def numeric_form_pairs(draw):
    """(kind, f_n, f_m) at n = 2..12 with ints, Fractions or dual numbers,
    a_0 and a_n nonzero in value."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["int", "fraction", "dual"]))
    scalar = {"int": st.integers(-9, 9),
              "fraction": st.builds(F, st.integers(-9, 9),
                                    st.sampled_from([1, 2, 3, 4, 6])),
              "dual": st.builds(DualScalar, st.integers(-9, 9),
                                st.integers(-3, 3))}[kind]
    end = scalar.map(lambda c: c if _is_unit(c) else c + 1)
    f = [draw(end)] + [draw(scalar) for _ in range(n - 1)] + [draw(end)]
    g = [draw(scalar) for _ in range(n - 1)]
    return kind, BinaryForm.from_coeffs(f), BinaryForm.from_coeffs(g)


def _is_unit(c):
    return (c.value if isinstance(c, DualScalar) else c) != 0


class TestEulerRoute:
    """Numeric series from the order n - 1 Bezout determinant of
    h_t = f_x + t*y*f_m and k_t = f_y - t*x*f_m (Euler's identity
    x*h_t + y*k_t = n*f)."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_euler_identity(self, n):
        f, g = BinaryForm.generic(n), BinaryForm.generic(n - 2, "b")
        h, k = euler_pair(f, g, MultiPoly.variable("t"))
        assert h.degree == k.degree == n - 1
        # x*h_t has the coefficients 0, h_0..h_{n-1}, y*k_t k_0..k_{n-1}, 0
        xh = (0,) + h.coefficients
        yk = k.coefficients + (0,)
        for a_i, u, v in zip(f.coefficients, xh, yk):
            assert u + v == a_i * n
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        assert x * as_xy(h) + y * as_xy(k) == as_xy(f) * n

    @pytest.mark.parametrize("n", range(2, 6))
    def test_resultant_identity(self, n):
        # (-1)^(n+1) * res(h_t, k_t) = n^(n-2) * res(f, x*h_t) / (a_0*a_n),
        # t a variable; n = 5 has fixed coefficients, to keep it quick
        f, g = ((BinaryForm.generic(n), BinaryForm.generic(n - 2, "b"))
                if n < 5 else partly_fixed_forms(n, 5, 77))
        h, k = euler_pair(f, g, MultiPoly.variable("t"))
        x_h = BinaryForm.from_coeffs((0,) + h.coefficients)
        lhs = signed_resultant(h, k) * (-1) ** (n + 1)
        a0, an = f.coefficients[0], f.coefficients[-1]
        rhs = (signed_resultant(f, x_h) * n ** (n - 2)).exact_div(a0 * an)
        assert lhs == rhs and not lhs.is_zero

    @pytest.mark.parametrize("n", range(2, 5))
    def test_symbolic_series_is_the_bezoutian_of_h_and_k(self, n):
        # the generic series (order-n pencil) against the identity's side
        f, g = BinaryForm.generic(n), BinaryForm.generic(n - 2, "b")
        t = MultiPoly.variable("t")
        h, k = euler_pair(f, g, t)
        series = dr_series(f, g, mode="symbolic")
        total = sum((e * t ** r for r, e in enumerate(series.entries)),
                    MultiPoly.zero())
        det = det_by_minors(bezout_matrix(h, k))
        assert det * (-1) ** (n + 1) == total * n ** (n - 2)

    @settings(max_examples=45, deadline=None)
    @given(numeric_form_pairs())
    @example(("int", BinaryForm.from_coeffs((1, 0, 1)),
              BinaryForm.from_coeffs((0,))))
    @example(("fraction", BinaryForm.from_coeffs((F(1, 2), F(0), F(1))),
              BinaryForm.from_coeffs((F(3, 5),))))
    @example(("dual", BinaryForm.from_coeffs(
        [DualScalar(c, 1) for c in (2, -1, 3, 0, 5)]),
        BinaryForm.from_coeffs([DualScalar(c, 0) for c in (1, 0, -2)])))
    def test_numeric_series_match_the_sylvester_reference(self, case):
        kind, f, g = case
        try:
            want = sylvester_series(f, g)
        except NumericDegenerateError:
            # the dual reference's elimination found no unit pivot
            assume(False)
        got = dr_series(f, g).entries
        assert list(got) == list(want)
        if kind == "dual":
            assert all(type(e) is DualScalar for e in got)

    @pytest.mark.parametrize("kind", ["int", "fraction", "dual"])
    @pytest.mark.parametrize("end", [0, -1])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_zero_end_coefficient_still_raises(self, monkeypatch, n, end,
                                               kind):
        # the route divides by a constant, not by a_0*a_n, yet the series
        # is defined by that division, so a zero value still raises before
        # any determinant; a dual's derivative there is not looked at
        make = {"int": int, "fraction": lambda c: F(c, 3),
                "dual": lambda c: DualScalar(c, 2)}[kind]
        coeffs = [make(c) for c in (4, -3, 2, 5, -1, 6, 7)[:n + 1]]
        coeffs[end] = make(0)
        g = BinaryForm.from_coeffs([make(c) for c in (7, 1, -3, 2, 5)[:n - 1]])
        calls = TestKernelChoice._count(monkeypatch)
        with pytest.raises(NumericDegenerateError, match=r"a_0 \* a_n = 0"):
            dr_series(BinaryForm.from_coeffs(coeffs), g)
        assert calls == {"bareiss": 0, "minors": 0}


@pytest.fixture(scope="module")
def generic_series():
    """The generic symbolic series at n = 3..6, each built once per module
    (n = 6 takes about 2 s)."""
    return {n: dr_series(BinaryForm.generic(n), BinaryForm.generic(n - 2, "b"),
                         mode="symbolic")
            for n in range(3, 7)}


class TestSymbolicSeriesBytes:
    # sha256 of json.dumps(series.to_json(), sort_keys=True) for the generic
    # symbolic series, n = 3..5 recorded before dr_series lifted the forms'
    # coefficients onto one namespace, n = 6 from the Bareiss determinant
    # before MultiPoly matrices were expanded by minors
    GENERIC_DIGESTS = {
        3: "3872a1ba75af9749ff14d074bc866647bb048e81a266acada7efeef7e21552bb",
        4: "8f32dd4eb892d7547d989416f9645d2e5923ebe421dbb7a5d059b6196e0b3003",
        5: "9c4cf7989ff1a184f92fbf807e0074457be03a9c4c7a70342c6c29a08a3e2023",
        6: "7649f9b20b818cbf946372c47b01c75242441202b6115fe7808207819945e59f",
    }

    @pytest.mark.parametrize("n", sorted(GENERIC_DIGESTS))
    def test_generic_series_is_pinned(self, n, generic_series):
        text = json.dumps(generic_series[n].to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GENERIC_DIGESTS[n]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_generic_entries_match_numeric_series(self, n, generic_series):
        # the symbolic entries (minors over MultiPoly) evaluated at seeded
        # integer points equal the numeric series there (Bareiss over ints)
        rng = random.Random(60 + n)
        names = [f"a{i}" for i in range(n + 1)] + [f"b{i}" for i in range(n - 1)]
        for _ in range(3):
            point = {v: rng.choice([-1, 1]) * rng.randint(1, 9) for v in names}
            values = [point[v] for v in names]
            numeric = dr_series(BinaryForm.from_coeffs(values[:n + 1]),
                                BinaryForm.from_coeffs(values[n + 1:]))
            assert [e.evaluate(point) for e in generic_series[n].entries] == (
                list(numeric.entries))

    def test_lifted_entries_render_as_unlifted(self, monkeypatch):
        # generic forms, and forms with some coefficients fixed to nonzero
        # integers as in the benchmark's symbolic workload
        rng = random.Random(53)
        cases = [(BinaryForm.generic(n), BinaryForm.generic(n - 2, "b"))
                 for n in (2, 3, 4)]
        for n in (3, 4, 4):
            names = [f"a{i}" for i in range(n + 1)] + [f"b{i}" for i in range(n - 1)]
            coeffs = [MultiPoly.constant(rng.choice([-3, -1, 2, 5]))
                      if rng.random() < 0.5 else MultiPoly.variable(v)
                      for v in names]
            cases.append((BinaryForm.from_coeffs(coeffs[:n + 1]),
                          BinaryForm.from_coeffs(coeffs[n + 1:])))
        lifted = [dr_series(f, g, mode="symbolic").entries for f, g in cases]
        for entries in lifted:
            assert len({e.variables for e in entries}) == 1
        # the same series with every operation aligning its own operands
        monkeypatch.setattr(binforms, "align_all", list)
        for (f, g), entries in zip(cases, lifted):
            plain = dr_series(f, g, mode="symbolic").entries
            assert [e.to_json() for e in entries] == [e.to_json() for e in plain]
            assert [str(e) for e in entries] == [str(e) for e in plain]
            assert entries == plain


class TestFixedCoefficients:
    """Forms over MultiPoly with some coefficients fixed to constants, which
    enter the Bezout matrices and their determinants as ints."""

    # sha256 of json.dumps(series.to_json(), sort_keys=True) and of
    # json.dumps([str(e) for e in series.entries]) for
    # partly_fixed_forms(n, k, 10 * n + k), recorded while every fixed
    # coefficient still entered as a constant MultiPoly
    FIXED_DIGESTS = {
        (3, 1): ("1c6072811b7b4a0eb16cd86425185121178953d8f0d3122342639a05ad8a74b9",
                 "7b86d60bf4a9c844804586168dbb3feea5c6a16be9a2e8e2de6bf126a6e67d52"),
        (3, 3): ("870e98b7b69d323a7aa1e124b72daf04ed4e2e607a843c2d1a3b92d26c4deb92",
                 "e7feac24ddaa4a636da0da2e4030c694fb7737fe1f6baf6345ee549298476975"),
        (3, 6): ("5c21b82aa32c1fde9362b89f67348b5085199445d76b835a6edf66f69b9ed89c",
                 "d0eacef766cccbef551a38e469d401e0ac50aaa03877887a50e6376d883e6c3a"),
        (4, 1): ("a8aebc5dcbd829bb5b201d42f55ed7ae8b4b27de54c37fa29da7fbd80ee1f0b6",
                 "8f7390846349a95dd93aefc9a79782407a7835688f1d589eb9ae7e535573f76c"),
        (4, 4): ("c06d75361844a03d2caf8d65a564a19fbef6484a1f3e3b525e585b4e28df9501",
                 "2d801676658225490c0b3ae73d041617156f047a25837aa69d342b127da1e947"),
        (4, 8): ("f17a5d454bb56076eef7b50ccde40b66983f65bfcc13c4e9dbb04a5668b15450",
                 "e76c1ade92373a9d511edf6961b7ff215110a30fb539f57e32702d62c06ecaff"),
        (5, 1): ("3c6e71a12dfc1b010b4c5f0c4cdc388dca2c4b1fdac72439f310c58e14f9b93f",
                 "187f4e57081f32b6eea63506cfd1e5332c83adbcc6431bf31266bbfe80ec5b01"),
        (5, 5): ("6957f42f897c47dda0cfde7d84c56988a872aa0ba727d67669aed15e89e45694",
                 "4997e017e352e5aed32a108e3cdd829a53390eb212ea6b33788c4dc958316cdb"),
        (5, 10): ("b4078f2fc88e91ad0be686d1ffecdb6cf63dd84f65d96cd7ec18d5ad40cc706f",
                  "65e35e94a4498991c122c72c5b8bb2c5dce95c1f72d67b8b25f241e8e7baff75"),
        # n = 4 with a_2 and b_1 fixed to 0 and a_4 to 3, recorded alike
        "zeros": ("cf8b970292eb86a8c4432f04c5fbfbd4ef39de48f88bb38e147d6ce0fe32dca0",
                  "bf8ba1aa8e712c229bf31ffba02f22a9d50ab420bf3d41d2272aa4e7c6c3a09f"),
    }

    @staticmethod
    def digests(series):
        texts = (json.dumps(series.to_json(), sort_keys=True),
                 json.dumps([str(e) for e in series.entries]))
        return tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)

    @pytest.mark.parametrize("case", sorted(FIXED_DIGESTS, key=str))
    def test_partly_fixed_series_are_pinned(self, case):
        if case == "zeros":
            a = [MultiPoly.variable(f"a{i}") for i in range(5)]
            b = [MultiPoly.variable(f"b{i}") for i in range(3)]
            a[2], b[1], a[4] = (MultiPoly.constant(0), MultiPoly.constant(0),
                                MultiPoly.constant(3))
            f, g = BinaryForm.from_coeffs(a), BinaryForm.from_coeffs(b)
        else:
            n, k = case
            f, g = partly_fixed_forms(n, k, 10 * n + k)
        series = dr_series(f, g, mode="symbolic")
        assert all(type(e) is MultiPoly for e in series.entries)
        assert self.digests(series) == self.FIXED_DIGESTS[case]

    @pytest.mark.parametrize("n", [3, 4])
    def test_fixed_entries_match_the_generic_series(self, n, generic_series):
        # a fixed coefficient gives the generic entries at its value
        for k in (1, n, 2 * n - 1):
            f, g = partly_fixed_forms(n, k, 400 + 10 * n + k)
            point = {}
            for i, c in enumerate(f.coefficients + g.coefficients):
                name = f"a{i}" if i <= n else f"b{i - n - 1}"
                point[name] = c.evaluate({}) if not c.variables else (
                    MultiPoly.variable(name))
            fixed = dr_series(f, g, mode="symbolic").entries
            assert list(fixed) == [e.evaluate(point)
                                   for e in generic_series[n].entries]

    CONSTANT_FORMS = [(2, -3, 5, 1), (4,), (1, 7), (-2, 0, 3), (6, 1, 0, 0, 5)]

    @pytest.mark.parametrize("f", CONSTANT_FORMS, ids=str)
    @pytest.mark.parametrize("g", CONSTANT_FORMS, ids=str)
    def test_constant_polynomials_give_polynomials(self, f, g):
        # every coefficient a MultiPoly constant: every result is a
        # MultiPoly of the value that the int forms give, degree 0 too
        P = MultiPoly.constant
        fp = BinaryForm.from_coeffs([P(c) for c in f])
        gp = BinaryForm.from_coeffs([P(c) for c in g])
        fi, gi = BinaryForm.from_coeffs(f), BinaryForm.from_coeffs(g)
        res = signed_resultant(fp, gp)
        assert type(res) is MultiPoly and res == signed_resultant(fi, gi)
        if len(f) >= 3 and f[0] and f[-1]:
            disc = discriminant(fp)
            assert type(disc) is MultiPoly and disc == discriminant(fi)
            if len(g) == len(f) - 2:
                series = dr_series(fp, gp, mode="symbolic")
                assert [type(e) for e in series.entries] == [MultiPoly] * len(f)
                assert series.entries == dr_series(fi, gi).entries

    def test_degree_zero_resultants_of_partly_fixed_forms(self):
        a0 = MultiPoly.variable("a0")
        f = BinaryForm.from_coeffs((a0, MultiPoly.constant(2),
                                    MultiPoly.constant(3)))
        c = BinaryForm.from_coeffs((MultiPoly.constant(4),))
        for res in (signed_resultant(f, c), signed_resultant(c, f)):
            assert type(res) is MultiPoly and res == 16
        assert signed_resultant(BinaryForm.from_coeffs((a0,)), f) == a0 ** 2

    @pytest.mark.parametrize("fixed", [(), (1,), (1, 2), (1, 2, 3)])
    def test_zero_polynomial_at_a0_is_degenerate(self, fixed):
        # a MultiPoly zero at a_0 enters as the int 0 and is refused, with
        # any of the other coefficients fixed
        a = [MultiPoly.constant(0)] + [
            MultiPoly.constant(i + 2) if i in fixed
            else MultiPoly.variable(f"a{i}") for i in range(1, 4)]
        f, g = BinaryForm.from_coeffs(a), BinaryForm.generic(1, "b")
        with pytest.raises(NumericDegenerateError):
            discriminant(f)
        with pytest.raises(NumericDegenerateError):
            dr_series(f, g, mode="symbolic")
        # a polynomial that is zero without being a constant polynomial
        x = MultiPoly.variable("x")
        a[0] = x - x
        with pytest.raises(NumericDegenerateError):
            dr_series(BinaryForm.from_coeffs(a), g, mode="symbolic")


class TestScalarDomains:
    """Exact results keep their domain: ints stay ints, nothing is a float."""

    def _forms(self, rng, n, kind):
        while True:
            f = [kind(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)]
            g = [kind(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - 1)]
            if f[0] and f[-1]:
                return BinaryForm.from_coeffs(f), BinaryForm.from_coeffs(g)

    def test_no_float_results(self):
        rng = random.Random(41)
        for kind in (lambda p, q: p, F):
            for n in range(2, 7):
                f, g = self._forms(rng, n, kind)
                values = [discriminant(f), signed_resultant(f, f.x_dx())]
                if g.degree >= 1 and not g.is_zero():
                    values.append(signed_resultant(f, g))
                values += dr_series(f, g).entries
                assert not any(isinstance(v, float) for v in values)

    def test_integer_input_gives_int_entries(self):
        rng = random.Random(43)
        for n in range(2, 7):
            f, g = self._forms(rng, n, lambda p, q: p)
            assert type(discriminant(f)) is int
            assert all(type(e) is int for e in dr_series(f, g).entries)
        assert discriminant(BinaryForm.from_coeffs([1, 0, 1])) == 4
        assert type(discriminant(BinaryForm.from_coeffs([1, 0, 1]))) is int

    def test_integral_rational_input_gives_int_results(self):
        # `dr-series --forms` parses every coefficient, "3" too, into a
        # Fraction; whole-number Fractions give what the same ints give
        rng = random.Random(47)

        def as_fractions(form):
            return BinaryForm.from_coeffs([F(c) for c in form.coefficients])

        for n in range(2, 7):
            f, g = self._forms(rng, n, lambda p, q: p)
            c = BinaryForm.from_coeffs((rng.choice([-3, 2, 5]),))
            pairs = [(f, f.x_dx()), (c, f), (f, c)]
            if g.degree >= 1 and not g.is_zero():
                pairs += [(f, g), (g, f)]
            results = []
            for ring in (lambda h: h, as_fractions):
                values = list(dr_series(ring(f), ring(g)).entries)
                values.append(discriminant(ring(f)))
                values += [signed_resultant(ring(p), ring(q)) for p, q in pairs]
                results.append(values)
            ints, fractions = results
            assert fractions == ints
            assert [type(v) for v in fractions] == [int] * len(ints)

    def test_rational_input_is_unscaled_exactly(self):
        f = BinaryForm.from_coeffs((F(1, 2), F(0), F(1)))
        g = BinaryForm.from_coeffs((F(3, 5),))
        assert dr_series(f, g).entries == (F(2), 0, F(9, 25))

    def test_fractions_mixed_with_rings_are_refused(self):
        # no ring of the library holds both a Fraction and a MultiPoly or
        # DualScalar, so such forms raise TypeError on the way in
        a = MultiPoly.variable("a")
        for other in (a, DualScalar(1, 1)):
            f = BinaryForm.from_coeffs((other, F(1, 2), F(1)))
            g = BinaryForm.from_coeffs((F(1, 2),))
            with pytest.raises(TypeError):
                dr_series(f, g, mode="symbolic")
            with pytest.raises(TypeError):
                discriminant(f)
            with pytest.raises(TypeError):
                signed_resultant(f, BinaryForm.from_coeffs((F(1, 2), 1)))
