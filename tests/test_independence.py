import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drbracket import binforms, independence
from drbracket.binforms import BinaryForm, NumericDegenerateError, dr_series
from drbracket.brackets import derive_seed
from drbracket.independence import (IndependenceCertificate, _eliminate,
                                    integer_matrix_rank, jacobian_matrix,
                                    jacobian_rank,
                                    multiplicative_independence,
                                    run_independence_suite)
from drbracket.laurent import (LaurentMonomial, PolygonModel, degree_matrix_P,
                               dr_rows, lm_dr_closed_form)
from drbracket.multipoly import MultiPoly, NotDivisibleError
from drbracket.rationals import DualScalar
from test_binforms import euler_pair


def mono(**kw):
    return LaurentMonomial.from_dict(
        {(name[0], int(name[1:])): e for name, e in kw.items()})


def reference_jacobian_matrix(a, b):
    """The Jacobian one direction at a time: 2n dual-number series, each
    seeded with derivative 1 along one coefficient; the reference that
    the packed single series must equal."""
    n = len(a) - 1
    cols = []
    for direction in range(2 * n):
        ac = [DualScalar(x, int(direction == i)) for i, x in enumerate(a)]
        bc = [DualScalar(x, int(direction == n + 1 + i))
              for i, x in enumerate(b)]
        series = dr_series(BinaryForm.from_coeffs(ac),
                           BinaryForm.from_coeffs(bc), mode="numeric")
        cols.append([series.entries[r].derivative for r in dr_rows(n)])
    return [[col[i] for col in cols] for i in range(len(dr_rows(n)))]


def jacobian_outcome(jacobian, a, b):
    try:
        return jacobian(a, b)
    except NumericDegenerateError:
        return "degenerate"


def l1(p):
    """l1 norm of an integer polynomial's coefficients."""
    return sum(map(abs, p.terms.values())) if isinstance(p, MultiPoly) else abs(p)


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def eliminate_fraction(M):
    """Rational Gaussian elimination on [M | I] with the same pivot scan:
    the reference the integer elimination must reproduce exactly."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [[F(x) for x in row] + [F(i == j) for j in range(rows)]
         for i, row in enumerate(M)]
    rank = 0
    trail = []
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if A[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        trail.append((pivot, c))
        pv = A[rank][c]
        for r in range(rank + 1, rows):
            if A[r][c]:
                f = A[r][c] / pv
                A[r] = [x - f * y for x, y in zip(A[r], A[rank])]
        rank += 1
        if rank == rows:
            break
    if rank == rows:
        return rank, trail, None
    combo = A[rank][cols:]
    scale = math.lcm(*(x.denominator for x in combo))
    ints = [int(x * scale) for x in combo]
    g = math.gcd(*ints)
    return rank, trail, [x // g for x in ints]


@st.composite
def degenerate_matrices(draw):
    """Small int matrices salted with repeated and proportional rows, zero
    rows and zero columns."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entry = st.integers(-6, 6)
    M = [draw(st.lists(entry, min_size=cols, max_size=cols))
         for _ in range(rows)]
    for i in range(rows):
        kind = draw(st.sampled_from(("keep", "keep", "copy", "scale", "zero")))
        src = M[draw(st.integers(0, rows - 1))]
        if kind == "copy":
            M[i] = list(src)
        elif kind == "scale":
            k = draw(st.sampled_from((-3, -2, -1, 2, 5)))
            M[i] = [k * x for x in src]
        elif kind == "zero":
            M[i] = [0] * cols
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in M:
            row[c] = 0
    return M


@settings(max_examples=300, deadline=None)
@given(degenerate_matrices())
def test_integer_elimination_matches_fraction_reference(M):
    # rank, pivot trail and kernel, its sign included, are those of
    # rational elimination
    assert _eliminate(M) == eliminate_fraction(M)


class TestIntegerRank:
    def test_identity(self):
        rank, _ = integer_matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank == 3

    def test_duplicated_row(self):
        rank, _ = integer_matrix_rank([[1, 2, 3], [1, 2, 3], [0, 0, 1]])
        assert rank == 2

    def test_n3_degree_matrix(self):
        rank, _ = integer_matrix_rank([[2, -2, 0, 2, 4, 0],
                                       [2, 0, 0, 0, 2, 0],
                                       [1, 1, 1, 0, 0, 0]])
        assert rank == 3

    def test_invariance_under_row_ops(self):
        rng = random.Random(3)
        for _ in range(20):
            M = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(4)]
            rank, _ = integer_matrix_rank(M)
            perm = list(range(4))
            rng.shuffle(perm)
            scaled = [[rng.choice((1, 2, -3)) * x for x in M[i]] for i in perm]
            assert integer_matrix_rank(scaled)[0] == rank

    @pytest.mark.parametrize("bad", [F(1, 2), F(3), 1.0])
    def test_non_int_entry_rejected(self, bad):
        with pytest.raises(TypeError):
            integer_matrix_rank([[1, 2], [3, bad]])

    def test_kernel_sign_follows_the_zero_row(self):
        # the zero row is input row 1, so its own coefficient is positive
        assert _eliminate([[1, 1], [-2, -2]]) == (1, [(0, 0)], [2, 1])
        assert _eliminate([[0, 3], [0, 1]]) == (1, [(0, 1)], [-1, 3])
        # a negative pivot leaves the raw combination at (-2, -1)
        assert _eliminate([[-1, 1], [2, -2]]) == (1, [(0, 0)], [2, 1])


class TestMultiplicativeIndependence:
    VARS = [("A", 1), ("A", 2), ("C", 1)]

    def test_triangular_independent(self):
        monos = [mono(A1=1), mono(A1=1, A2=1), mono(C1=1)]
        cert = multiplicative_independence(monos, self.VARS)
        assert cert.verdict == "independent"
        assert cert.rank == 3

    def test_proportional_dependent(self):
        monos = [mono(A1=1, A2=1), mono(A1=2, A2=2)]
        cert = multiplicative_independence(monos, self.VARS)
        assert cert.verdict == "dependent"
        k = cert.kernel
        # kernel is +-(2, -1)
        assert k in ((2, -1), (-2, 1))

    def test_kernel_annihilates(self):
        rng = random.Random(5)
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(4)]
            monos = [LaurentMonomial.from_dict(
                {v: e for v, e in zip(self.VARS, row) if e}) for row in rows]
            cert = multiplicative_independence(monos, self.VARS)
            if cert.verdict == "dependent":
                for c in range(3):
                    assert sum(k * row[c]
                               for k, row in zip(cert.kernel, cert.matrix)) == 0

    def test_dr_leading_monomials_n3(self):
        P = degree_matrix_P(3, "direct")
        monos = [LaurentMonomial.from_dict(
            {v: d for v, d in zip(P.columns, degrees) if d})
            for _, degrees in P.rows]
        cert = multiplicative_independence(monos, P.columns)
        assert cert.verdict == "independent" and cert.rank == 3

    def test_dr_leading_monomials_up_to_12(self):
        for n in range(4, 13):
            model = PolygonModel(n)
            monos = [lm_dr_closed_form(n, r) for r in dr_rows(n)]
            cert = multiplicative_independence(monos, model.all_vars())
            assert cert.verdict == "independent"
            assert cert.rank == n

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multiplicative_independence([], self.VARS)

    def test_kernel_is_checked_without_assert(self, monkeypatch):
        # a kernel that does not annihilate the rows must raise, also
        # under python -O
        monkeypatch.setattr(independence, "_eliminate",
                            lambda rows: (1, [(0, 0)], [1, 1]))
        monos = [mono(A1=1, A2=1), mono(A1=2, A2=2)]
        with pytest.raises(ArithmeticError):
            multiplicative_independence(monos, self.VARS)


class TestJacobian:
    def test_n2(self):
        rep = jacobian_rank(2, points=5, seed=1)
        assert rep["expected_rank"] == 2
        assert rep["max_rank"] == 2

    def test_n3(self):
        rep = jacobian_rank(3, points=10, seed=2)
        assert rep["max_rank"] == 3

    def test_rank_bounded(self):
        for n in (2, 3, 4):
            rep = jacobian_rank(n, points=3, seed=3)
            for p in rep["per_point"]:
                assert p["rank"] <= min(len(dr_rows(n)), 2 * n)

    def test_degenerate_points_resampled(self):
        rep = jacobian_rank(3, points=4, seed=4)
        for p in rep["per_point"]:
            a = p["point"]["a"]
            assert a[0] != 0 and a[-1] != 0

    def test_degenerate_pivot_is_resampled(self, monkeypatch):
        # the first determinant sees a first column with zero value parts
        # and nonzero derivatives, so elimination has no pivot there
        plain = jacobian_rank(3, points=3, seed=6)
        det = binforms.det_fraction_free
        calls = []

        def degenerate_once(M):
            calls.append(1)
            if len(calls) == 1:
                M = [[DualScalar(0, 1)] + row[1:] for row in M]
            return det(M)
        monkeypatch.setattr(binforms, "det_fraction_free", degenerate_once)
        rep = jacobian_rank(3, points=2, seed=6)
        assert rep["points"] == 2
        assert rep["per_point"] == plain["per_point"][1:]

    @pytest.mark.parametrize("n", [3, 4])
    def test_columns_are_symbolic_partials(self, n):
        # column c of the matrix at a point is the MultiPoly derivative of
        # every row's symbolic entry along coefficient c, evaluated there
        entries = dr_series(BinaryForm.generic(n, "a"),
                            BinaryForm.generic(n - 2, "b"),
                            mode="symbolic").entries
        names = [f"a{i}" for i in range(n + 1)] + [f"b{i}" for i in range(n - 1)]
        rng = random.Random(n)
        for _ in range(3):
            a = [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(n + 1)]
            b = [rng.randint(-4, 4) for _ in range(n - 1)]
            point = dict(zip(names, a + b))
            jac = jacobian_matrix(a, b)
            assert len(jac) == len(dr_rows(n))
            assert all(len(row) == 2 * n for row in jac)
            for row, r in zip(jac, dr_rows(n)):
                assert row == [entries[r].derivative(v).evaluate(point)
                               for v in names]

    def test_one_series_per_point(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return dr_series(*args, **kwargs)
        monkeypatch.setattr(independence, "dr_series", counted)
        for n in (3, 4):
            calls.clear()
            rep = jacobian_rank(n, points=3, seed=1)
            assert rep["points"] == 3
            assert len(calls) == 3

    @pytest.mark.parametrize("kind", ["seeded", "corner"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_reference(self, n, kind):
        # corner points have every coordinate +-JACOBIAN_BOUND, where the
        # partials are largest
        bound = independence.JACOBIAN_BOUND
        rng = random.Random(derive_seed(7, f"reference:{kind}:{n}"))
        values = ((-bound, bound) if kind == "corner"
                  else range(-bound, bound + 1))
        outcomes = []
        for _ in range(4):
            a = [rng.choice(values) for _ in range(n + 1)]
            b = [rng.choice(values) for _ in range(n - 1)]
            a[0], a[n] = a[0] or 1, a[n] or -1  # as jacobian_rank requires
            outcomes.append(jacobian_outcome(jacobian_matrix, a, b))
            assert outcomes[-1] == jacobian_outcome(reference_jacobian_matrix,
                                                    a, b)
        assert outcomes.count("degenerate") < len(outcomes)

    def test_every_corner_at_n3_matches_reference(self):
        # 8 of the 64 sign patterns leave a column with no nonzero value, so
        # the zero test on its packed derivatives decides the outcome
        bound = independence.JACOBIAN_BOUND
        outcomes = []
        for signs in itertools.product((-bound, bound), repeat=6):
            a, b = list(signs[:4]), list(signs[4:])
            outcomes.append(jacobian_outcome(jacobian_matrix, a, b))
            assert outcomes[-1] == jacobian_outcome(reference_jacobian_matrix,
                                                    a, b)
        assert outcomes.count("degenerate") == 8

    @pytest.mark.parametrize("n", range(2, 8))
    def test_radix_bound_constants(self, n):
        # _gradient_radix_bits assumes every entry of Bez(h_t, k_t)
        # (t = 0..n) has l1 norm <= 8n^3 and every row <= 8n^4, also with
        # t formal
        f, g = BinaryForm.generic(n, "a"), BinaryForm.generic(n - 2, "b")
        for t in list(range(n + 1)) + [MultiPoly.variable("t")]:
            B = binforms.bezout_matrix(*euler_pair(f, g, t))
            norms = [[l1(u) for u in row] for row in B]
            assert max(map(max, norms)) <= 8 * n ** 3
            assert max(map(sum, norms)) <= 8 * n ** 4

    @pytest.mark.parametrize("n", range(3, 8))
    def test_bareiss_partials_fit_the_radix(self, monkeypatch, n):
        # at points with every coordinate +-JACOBIAN_BOUND, one direction
        # seeded at a time, every entry the symmetric Bareiss pass holds
        # (the matrix's entries, the order-2 minors of its first step and
        # each exact quotient after), every sample and every series entry
        # has its partial inside (-R/2, R/2)
        bound = independence.JACOBIAN_BOUND
        half = 1 << (independence._gradient_radix_bits(n, bound) - 1)
        symmetric, divide = binforms._det_persymmetric, binforms.exact_div
        partials, fallbacks = [], []

        def recording_det(M):
            S = [row[::-1] for row in M]
            partials.extend(x.derivative for row in S for x in row)
            partials.extend((S[i][j] * S[0][0] - S[0][i] * S[0][j]).derivative
                            for i in range(1, len(S))
                            for j in range(i, len(S)))
            det = symmetric(M)
            fallbacks.append(det is None)
            return det

        def recording_div(a, b):
            q = divide(a, b)
            partials.append(q.derivative)
            return q
        monkeypatch.setattr(binforms, "_det_persymmetric", recording_det)
        monkeypatch.setattr(binforms, "exact_div", recording_div)
        rng = random.Random(derive_seed(11, f"radix:{n}"))
        kept = []
        # a corner whose elimination meets a zero pivot is drawn again
        while len(kept) < 2:
            coords = [rng.choice((-bound, bound)) for _ in range(2 * n)]
            partials.clear()
            fallbacks.clear()
            try:
                for c in range(2 * n):
                    duals = [DualScalar(x, int(i == c))
                             for i, x in enumerate(coords)]
                    series = dr_series(BinaryForm.from_coeffs(duals[:n + 1]),
                                       BinaryForm.from_coeffs(duals[n + 1:]))
                    partials.extend(e.derivative for e in series.entries)
            except NumericDegenerateError:
                continue
            if not any(fallbacks):
                assert len(fallbacks) == 2 * n * (n + 1)
                kept.append(max(map(abs, partials)))
        assert max(kept) < half

    @pytest.mark.parametrize("end", [0, -1])
    @pytest.mark.parametrize("n", [3, 5])
    def test_zero_end_coefficient_is_degenerate(self, n, end):
        # dr_series tests a_0 * a_n by its value part: the packed derivative
        # of a zero a_0 * a_n is not 0
        a, b = [4, 3, -2, 5, -1, 6][:n + 1], [7, 1, -3, 2][:n - 1]
        a[end] = 0
        with pytest.raises(NumericDegenerateError, match=r"a_0 \* a_n = 0"):
            jacobian_matrix(a, b)

    @pytest.mark.parametrize("bits", [1, 8, 16])
    def test_too_small_radix_raises(self, monkeypatch, bits):
        # a radix below the proved bound must never give a matrix; the point
        # is not degenerate, so the error is the leftover-digit check's
        for n in (3, 5):
            a, b = [20, -20, 20, -20, 20, -20][:n + 1], [20, 20, 20, 20][:n - 1]
            assert len(reference_jacobian_matrix(a, b)) == len(dr_rows(n))
            with monkeypatch.context() as m:
                m.setattr(independence, "_gradient_radix_bits",
                          lambda n, top: bits)
                with pytest.raises(ArithmeticError, match="overflow the radix"):
                    jacobian_matrix(a, b)

    def test_degenerate_points_are_resampled(self, monkeypatch):
        # a point with a_0 = 0 is skipped before any series, and a point
        # whose series finds no unit pivot (a corner at n = 3) is drawn
        # again; the next point is kept, and nothing else changes
        draws = iter([0, 5, -3, 7, 1, 2,                # a_0 = 0
                      -20, -20, -20, -20, -20, 20,      # degenerate corner
                      4, 3, -2, 5, 7, 1])               # kept

        class Scripted:
            def __init__(self, seed):
                pass

            def randint(self, lo, hi):
                return next(draws)
        tried = []

        def counted(a, b):
            tried.append((a, b))
            return jacobian_matrix(a, b)
        monkeypatch.setattr(independence, "Random", Scripted)
        monkeypatch.setattr(independence, "jacobian_matrix", counted)
        rep = jacobian_rank(3, points=1)
        assert tried == [([-20, -20, -20, -20], [-20, 20]),
                         ([4, 3, -2, 5], [7, 1])]
        assert rep["points"] == 1 and rep["max_rank"] == 3
        assert rep["per_point"] == [{"point": {"a": [4, 3, -2, 5],
                                               "b": [7, 1]}, "rank": 3}]

    @pytest.mark.parametrize("divisor, error", [
        (DualScalar(2), NotDivisibleError), (0, ZeroDivisionError)])
    def test_division_errors_propagate(self, monkeypatch, divisor, error):
        # an inexact or zero division is a bug, not a degenerate point
        monkeypatch.setattr(binforms, "exact_div",
                            lambda a, b: DualScalar(1, 1).exact_div(divisor))
        with pytest.raises(error):
            jacobian_rank(3, points=1, seed=0)


# sha256 of the sorted-key JSON of each report, recorded with the Fraction
# elimination and Fraction Laurent evaluation that the integer code replaced
JACOBIAN_DIGESTS = {
    (2, 0): "2624b491b008437afdc1426b7e71d8605470e49a8aa0d80a6bfdd0bfc4d32952",
    (2, 5): "cc651b853a3c705004d7b6dec430dd1dd2c35fd1e96eb81ecb64b6d5c807f2f5",
    (3, 0): "79d1af0dc871e141e5c84e9a030b614e8e16a00cd270401d0b435dee5da09860",
    (3, 5): "8ae9605caabc3bfdecf900ae2a5402a25b88e68aced9f003c1785e05131166cd",
    (4, 0): "4d4bfaf50703f85d8130caceb08c9afc6e13d776e4cad5454eab59067ab96f62",
    (4, 5): "c67ed4d26414cc8e08d3131d0ea32abb24ae4481e7927645f7dccf7d2524af87",
    (5, 0): "236b01c24d1fb8be7e4e7c75d3ad39646a59de34610adf08b074a559e45fb603",
    (5, 5): "e28563688fb8116f51a65fdbeb7ff983a7518cde4ba9f631ec0122da0506a417",
    (6, 0): "9bee3b3c7784806b398b35b74ba1cbe3a9d59dd7939ffa4dcbc00ee529103699",
    (6, 5): "12e95f1d1d4afc6bcef067a86fc1f66028303214f15f5557a01e46d650499883",
    (7, 0): "11f88245653a298830b71979a3b58e45f488af1f2dad65b4f48fd0a7e1609898",
    (7, 5): "5e44ebacf4f7730bd1c73773f39485f80b6f7ad9a4222cf569217ec645042e12",
}
SUITE_12_DIGEST = ("62b12251da62ce291958685e41d4d093"
                   "e1825ea4d03f6b9456f927e7d67f0b2b")


class TestRecordedReports:
    @pytest.mark.parametrize("n, seed", sorted(JACOBIAN_DIGESTS))
    def test_jacobian_rank(self, n, seed):
        assert (sha256_json(jacobian_rank(n, seed=seed))
                == JACOBIAN_DIGESTS[n, seed])

    def test_suite_to_12(self):
        assert sha256_json(run_independence_suite(12)) == SUITE_12_DIGEST


class TestSuite:
    def test_nmax5(self):
        summary = run_independence_suite(5, seed=0, jacobian_points=3)
        assert summary["all_independent"]
        assert [e["n"] for e in summary["results"]] == [3, 4, 5]
        for e in summary["results"]:
            assert e["rank"] == e["expected_rank"] == e["n"]
            assert "seconds" not in e  # timings stay out of the payload

    def test_n3_uses_direct(self):
        summary = run_independence_suite(3, seed=0, jacobian_points=2)
        assert summary["results"][0]["method"] == "direct"

    def test_starts_at_3(self):
        with pytest.raises(ValueError):
            run_independence_suite(2)
