import random
from fractions import Fraction as F

import pytest

from drbracket import binforms, independence
from drbracket.binforms import BinaryForm, dr_series
from drbracket.independence import (IndependenceCertificate,
                                    integer_matrix_rank, jacobian_matrix,
                                    jacobian_rank,
                                    multiplicative_independence,
                                    run_independence_suite)
from drbracket.laurent import (LaurentMonomial, PolygonModel, degree_matrix_P,
                               dr_rows, lm_dr_closed_form)
from drbracket.multipoly import NotDivisibleError
from drbracket.rationals import DualScalar


def mono(**kw):
    return LaurentMonomial.from_dict(
        {(name[0], int(name[1:])): e for name, e in kw.items()})


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

    def test_two_n_series_per_point(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return dr_series(*args, **kwargs)
        monkeypatch.setattr(independence, "dr_series", counted)
        for n in (3, 4):
            calls.clear()
            rep = jacobian_rank(n, points=3, seed=1)
            assert rep["points"] == 3
            assert len(calls) == 2 * n * 3

    @pytest.mark.parametrize("divisor, error", [
        (DualScalar(2), NotDivisibleError), (0, ZeroDivisionError)])
    def test_division_errors_propagate(self, monkeypatch, divisor, error):
        # an inexact or zero division is a bug, not a degenerate point
        monkeypatch.setattr(binforms, "exact_div",
                            lambda a, b: DualScalar(1, 1).exact_div(divisor))
        with pytest.raises(error):
            jacobian_rank(3, points=1, seed=0)


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
