import copy
import pickle
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drbracket import multipoly
from drbracket.binforms import BinaryForm, DRSeries, dr_series
from drbracket.multipoly import (MissingVariableError, MultiPoly,
                                 NotDivisibleError, align_all, exact_div,
                                 interpolate_in_t)
from drbracket.rationals import DualScalar, format_rational

x = MultiPoly.variable("x")
y = MultiPoly.variable("y")


def det_laplace(M):
    """Independent determinant oracle: Laplace expansion on the first row."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * det_laplace(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def rand_poly(rng, nvars=3, nterms=4, bound=6):
    names = ["x", "y", "z"][:nvars]
    p = MultiPoly.zero()
    for _ in range(rng.randint(1, nterms)):
        mono = MultiPoly.constant(rng.randint(-bound, bound))
        for v in names:
            mono = mono * MultiPoly.variable(v) ** rng.randint(0, 3)
        p = p + mono
    return p


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (x + y) * (x - y) == x * x - y * y

    def test_add_zero_identity(self):
        p = x * y + 3
        assert p + MultiPoly.zero() == p

    def test_rational_coefficient_product(self):
        # coefficients are ints: a Fraction factor or summand is refused
        assert (x * 2) * (x * -3) == x ** 2 * -6
        for op in (lambda: x * F(1, 2), lambda: F(1, 2) * x,
                   lambda: x + F(1, 2), lambda: x - F(2), lambda: x * 0.5):
            with pytest.raises(TypeError):
                op()

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            x ** -1

    def test_namespace_union(self):
        p = MultiPoly.variable("a") + MultiPoly.variable("c")
        q = MultiPoly.variable("b")
        assert set((p * q).variables) == {"a", "b", "c"}


class TestExactDivide:
    def test_exact_factor(self):
        assert (x ** 2 - y ** 2).exact_div(x - y) == x + y

    def test_non_factor(self):
        with pytest.raises(NotDivisibleError):
            (x ** 2 + y ** 2).exact_div(x - y)

    def test_degree_two_discriminant_via_sylvester_oracle(self):
        # numerator res(f_2, x d/dx f_2) for f = a0 y^2 + a1 xy + a2 x^2,
        # via an independent Laplace-expansion determinant of the 4x4
        # Sylvester matrix (rows of f then of x*f', highest x power first)
        a0, a1, a2 = (MultiPoly.variable(f"a{i}") for i in range(3))
        z = MultiPoly.zero()
        syl = [
            [a2, a1, a0, z],
            [z, a2, a1, a0],
            [a2 * 2, a1, z, z],
            [z, a2 * 2, a1, z],
        ]
        numerator = det_laplace(syl)  # (-1)^(2*2) = +1, no sign correction
        expected = (a0 * a2) * (a0 * a2 * 4 - a1 ** 2)
        assert numerator == expected
        assert numerator.exact_div(a0 * a2) == a0 * a2 * 4 - a1 ** 2

    def test_constant_divisor_scales_like_long_division(self):
        p = x ** 2 * 6 - y * 12
        for q in (3, -6):
            scaled = p.exact_div(q)
            assert scaled == p.exact_div(MultiPoly.constant(q))
            assert scaled.variables == p.variables
        for q in (4, MultiPoly.constant(4)):
            with pytest.raises(NotDivisibleError):
                p.exact_div(q)
        with pytest.raises(ZeroDivisionError):
            p.exact_div(0)


class TestExactDivRule:
    def test_ints_divide_exactly(self):
        assert exact_div(-12, 4) == -3 and type(exact_div(12, 4)) is int
        with pytest.raises(NotDivisibleError):
            exact_div(7, 2)

    def test_fractions_are_refused(self):
        # two routes only: int by int, and a ring element by its own
        # exact_div; a Fraction or float is in neither
        for a, b in ((F(7), 2), (3, F(3, 4)), (F(4), F(2)), (x, F(1, 2)),
                     (F(1, 2), x), (DualScalar(2), F(1, 2)),
                     (F(1, 2), DualScalar(1)), (1.5, 1), (3, 1.5)):
            with pytest.raises(TypeError):
                exact_div(a, b)

    def test_polynomials_and_constants(self):
        assert exact_div(x * 6, 3) == x * 2
        assert exact_div(x * y, x) == y
        for a, b in ((x * 6, 4), (x, MultiPoly.constant(2))):
            with pytest.raises(NotDivisibleError):
                exact_div(a, b)
        # an int dividend is not lifted into the divisor's ring
        for a, b in ((0, x), (1, x)):
            with pytest.raises(TypeError):
                exact_div(a, b)

    def test_duals(self):
        # (2 + eps)(3 + eps) = 6 + 5 eps
        assert exact_div(DualScalar(6, 5), DualScalar(2, 1)) == DualScalar(3, 1)
        assert exact_div(DualScalar(6, 4), 2) == DualScalar(3, 2)
        with pytest.raises(TypeError):
            exact_div(4, DualScalar(2, 1))
        for a, b in ((DualScalar(7, 1), 2), (DualScalar(6, 1), DualScalar(2))):
            with pytest.raises(NotDivisibleError):
                exact_div(a, b)
        with pytest.raises(ZeroDivisionError):
            exact_div(DualScalar(6, 1), DualScalar(0, 1))


class TestEvaluate:
    def test_point_value(self):
        assert (x ** 2 * y).evaluate({"x": F(2), "y": F(3)}) == 12

    def test_constant(self):
        assert MultiPoly.constant(5).evaluate({"x": F(9)}) == 5

    def test_symmetry_zero(self):
        assert (x - y).evaluate({"x": F(7), "y": F(7)}) == 0

    def test_missing_binding(self):
        with pytest.raises(MissingVariableError):
            (x * y).evaluate({"x": F(1)})

    def test_integer_polynomial_at_integer_point_is_int(self):
        for p in (MultiPoly.zero(), x - x, MultiPoly.constant(4),
                  x ** 2 * y * 3 - 5):
            v = p.evaluate({"x": 2, "y": -3})
            assert type(v) is int
        assert MultiPoly.zero().evaluate({}) == 0


class TestInterpolation:
    def test_quadratic(self):
        coeffs = interpolate_in_t([1, 3, 7])
        assert coeffs == [1, 1, 1]  # 1 + t + t^2

    def test_constant(self):
        coeffs = interpolate_in_t([5, 5, 5])
        assert coeffs == [5, 0, 0]

    def test_linear_polynomial_values(self):
        a = MultiPoly.variable("a")
        b = MultiPoly.variable("b")
        coeffs = interpolate_in_t([a, a + b, a + b * 2])
        assert coeffs == [a, b, 0]

    def test_int_samples_divide_exactly(self):
        # t*(t-1)/2 has no integer coefficients, so ints refuse it
        with pytest.raises(NotDivisibleError):
            interpolate_in_t([0, 0, 1])
        out = interpolate_in_t([3 * t ** 3 - 2 * t + 7 for t in range(5)])
        assert out == [7, -2, 0, 3, 0] and all(type(c) is int for c in out)

    def test_polynomial_samples_divide_exactly(self):
        # a*t*(t-1)/2 + b has no integer coefficients either
        a, b = MultiPoly.variable("a"), MultiPoly.variable("b")
        with pytest.raises(NotDivisibleError):
            interpolate_in_t([b, b, a + b])
        assert interpolate_in_t([b, b, a * 2 + b]) == [b, -a, a]

    def test_mixed_samples_are_lifted(self):
        a = MultiPoly.variable("a")
        out = interpolate_in_t([2, a + 2, a * 2 + 2])
        assert out == [MultiPoly.constant(2), a, 0]
        assert all(isinstance(c, MultiPoly) for c in out)

    def test_dual_samples(self):
        out = interpolate_in_t([DualScalar(1 + t * t, t) for t in range(3)])
        assert out == [DualScalar(1), DualScalar(0, 1), DualScalar(1)]
        assert all(type(c.value) is int and type(c.derivative) is int
                   for c in out)
        with pytest.raises(NotDivisibleError):
            interpolate_in_t([DualScalar(0, t * (t - 1) // 2 % 2)
                              for t in range(3)])

    def test_random_degree_8_roundtrip(self):
        import random
        rng = random.Random(7)
        coeffs = [rng.randint(-9, 9) for _ in range(9)]
        values = [sum(c * t ** k for k, c in enumerate(coeffs))
                  for t in range(9)]
        assert interpolate_in_t(values) == coeffs


class TestDual:
    def test_nilpotent_square(self):
        eps = DualScalar(0, 1)
        assert eps * eps == DualScalar(0, 0) == 0

    def test_lift_accepts_only_ints(self):
        assert DualScalar.lift(3) == DualScalar(3, 0)
        for bad in (F(1, 2), F(2), x):
            with pytest.raises(TypeError):
                DualScalar.lift(bad)

    def test_value_semantics(self):
        d = DualScalar(3, -2)
        assert repr(d) == "DualScalar(value=3, derivative=-2)"
        assert str(DualScalar(5)) == "DualScalar(value=5, derivative=0)"
        assert d == DualScalar(3, -2) and d != DualScalar(3, 2)
        assert DualScalar(4) == 4 and DualScalar(4, 1) != 4
        assert hash(d) == hash(DualScalar(3, -2)) == hash((3, -2))
        assert len({d, DualScalar(3, -2), DualScalar(3)}) == 2
        assert (d == F(1, 2)) is False and d != F(1, 2)
        with pytest.raises(TypeError):
            d + F(1, 2)

    def test_compares_unequal_to_other_types(self):
        # __eq__ gives such operands back (NotImplemented) instead of raising
        assert DualScalar(1).__eq__(None) is NotImplemented
        assert (DualScalar(1) == None) is False  # noqa: E711
        assert DualScalar(1) != None  # noqa: E711
        assert (DualScalar(1) == F(1, 2)) is False
        assert (F(1, 2) == DualScalar(1)) is False
        assert None not in [DualScalar(1)]
        assert DualScalar(1) in [None, DualScalar(1)]

    def test_hash_agrees_with_equal_ints(self):
        assert hash(DualScalar(3)) == hash(3)
        assert hash(DualScalar(-1)) == hash(-1)
        table = {3: "three"}
        assert table[DualScalar(3)] == "three"
        assert DualScalar(3, 1) not in table
        assert {DualScalar(3): 1}[3] == 1
        assert len({3, DualScalar(3), DualScalar(3, 0)}) == 1

    def test_arithmetic_with_ints(self):
        d = DualScalar(3, -2)
        assert d + 1 == 1 + d == DualScalar(4, -2)
        assert d - 1 == DualScalar(2, -2)
        assert 1 - d == DualScalar(-2, 2)
        assert d - DualScalar(1, 1) == DualScalar(2, -3)
        assert 2 * d == d * 2 == DualScalar(6, -4)
        assert d * DualScalar(2, 5) == DualScalar(6, 11)

    def test_not_divisible_message_shows_repr(self):
        with pytest.raises(NotDivisibleError,
                           match=r"DualScalar\(value=7, derivative=1\) not "
                                 r"divisible by DualScalar\(value=2, "
                                 r"derivative=0\)"):
            DualScalar(7, 1).exact_div(2)

    def test_matches_symbolic_derivative(self):
        # at seeded integer points, every dual series entry is the symbolic
        # entry and its partial derivative along the dual direction
        rng = random.Random(11)
        for n in (2, 3, 4):
            f_n = BinaryForm.generic(n, "a")
            f_m = BinaryForm.generic(n - 2, "b")
            symbolic = dr_series(f_n, f_m, mode="symbolic").entries
            names = [c.variables[0]
                     for c in f_n.coefficients + f_m.coefficients]
            for _ in range(2):
                point = {v: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
                         for v in names}
                for var in names:
                    a, b = ([DualScalar(point[c.variables[0]],
                                        int(c.variables == (var,)))
                             for c in form.coefficients]
                            for form in (f_n, f_m))
                    dual = dr_series(BinaryForm.from_coeffs(a),
                                     BinaryForm.from_coeffs(b)).entries
                    for d, e in zip(dual, symbolic):
                        assert d.value == e.evaluate(point)
                        assert (d.derivative
                                == e.derivative(var).evaluate(point))


small_polys = st.builds(
    lambda seed: rand_poly(__import__("random").Random(seed)),
    st.integers(min_value=0, max_value=10_000))


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_mul_then_divide_roundtrip(q, r):
    if q.is_zero:
        q = q + 1
    assert (q * r).exact_div(q) == r


# -- reference model: a dict from monomials to Fractions ---------------------
# A monomial is a sorted tuple of (variable, exponent > 0) pairs, so the
# reference needs no namespace and never stores an int.

def ref_of(p: MultiPoly) -> dict:
    return {tuple((v, k) for v, k in zip(p.variables, e) if k): F(c)
            for e, c in p.terms.items()}


def ref_add(p: dict, q: dict, sign=1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, F(0)) + sign * c
    return {m: c for m, c in out.items() if c}


def ref_mul(p: dict, q: dict) -> dict:
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, k in m2:
                exps[v] = exps.get(v, 0) + k
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, F(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_derivative(p: dict, var: str) -> dict:
    out = {}
    for m, c in p.items():
        exps = dict(m)
        k = exps.get(var, 0)
        if k:
            exps[var] = k - 1
            d = tuple((v, e) for v, e in sorted(exps.items()) if e)
            out[d] = out.get(d, F(0)) + c * k
    return {m: c for m, c in out.items() if c}


def ref_to_json(p: dict) -> dict:
    vs = sorted({v for m in p for v, _ in m})
    recs = sorted((tuple(dict(m).get(v, 0) for v in vs), c)
                  for m, c in p.items())
    return {"variables": vs,
            "terms": [{"coefficient": str(c.numerator) if c.denominator == 1
                       else f"{c.numerator}/{c.denominator}",
                       "exponents": list(e)} for e, c in recs]}


def assert_canonical(p: MultiPoly):
    """Coefficients are nonzero plain ints."""
    for c in p.terms.values():
        assert type(c) is int and c != 0, c


# int coefficients over random sub-namespaces of {u, v, w}
coefficients = st.integers(-30, 30)


def polys_over(namespaces, min_size=0, max_size=6,
               exponents=st.integers(0, 3)):
    return st.sampled_from(namespaces).flatmap(
        lambda vs: st.dictionaries(
            st.tuples(*[exponents] * len(vs)), coefficients,
            min_size=min_size, max_size=max_size).map(
            lambda terms: MultiPoly(vs, terms)))


mixed_polys = polys_over([("u",), ("v", "w"), ("u", "v"), ("u", "v", "w")])


@settings(max_examples=150, deadline=None)
@given(mixed_polys, mixed_polys)
def test_arithmetic_matches_fraction_reference(p, q):
    rp, rq = ref_of(p), ref_of(q)
    for result, expected in ((p + q, ref_add(rp, rq)),
                             (p - q, ref_add(rp, rq, -1)),
                             (p * q, ref_mul(rp, rq)),
                             (p.derivative("v"), ref_derivative(rp, "v"))):
        assert_canonical(result)
        assert ref_of(result) == expected
        assert result.to_json() == ref_to_json(expected)
    assert_canonical(p)
    assert p.to_json() == ref_to_json(rp)
    assert MultiPoly.from_json(p.to_json()) == p


@settings(max_examples=150, deadline=None)
@given(mixed_polys, mixed_polys)
def test_exact_div_matches_fraction_reference(p, q):
    if q.is_zero:
        return
    quotient = (p * q).exact_div(q)
    assert_canonical(quotient)
    assert ref_of(quotient) == ref_of(p)
    if q.terms.keys() != {(0,) * len(q.variables)}:
        # q is not a constant, so it does not divide p*q + 1
        with pytest.raises(NotDivisibleError):
            (p * q + 1).exact_div(q)


# Long division: dividends of three dense factors, which run past 64 terms,
# divided by one-term divisors and by divisors over a variable x that the
# dividends' own factors never use.  A dividend is rebuilt from its JSON, so
# its namespace holds only the variables it uses, and a divisor whose
# namespace lists a variable it does not use is not a subset of it.
dense_polys = polys_over([("u", "v", "w")], min_size=4)
divisor_namespaces = [("u",), ("v", "w"), ("u", "v", "w"),
                      ("x",), ("u", "x"), ("v", "w", "x")]
divisors = st.one_of(polys_over(divisor_namespaces, 1, 1),
                     polys_over(divisor_namespaces, 1))


@settings(max_examples=80, deadline=None)
@given(st.tuples(dense_polys, dense_polys, dense_polys), divisors)
def test_exact_div_of_large_products(factors, q):
    if q.is_zero:
        return
    p = factors[0] * factors[1] * factors[2]
    dividend = MultiPoly.from_json((p * q).to_json())
    quotient = dividend.exact_div(q)
    assert_canonical(quotient)
    assert quotient == p and ref_of(quotient) == ref_of(p)
    if q.terms.keys() != {(0,) * len(q.variables)}:
        with pytest.raises(NotDivisibleError):
            (dividend + 1).exact_div(q)


def test_long_remainders_and_one_term_divisors():
    p = MultiPoly(("u", "v", "w"), {(0, 0, 0): 1, (1, 0, 0): 2, (0, 2, 0): 3,
                                    (0, 0, 3): 5, (2, 1, 1): 7, (1, 3, 0): 11,
                                    (3, 0, 2): -13})
    cube = p * p * p
    assert len(cube.terms) > 64
    q = x * y - 1
    assert (cube * q).exact_div(q) == cube
    assert (cube * x * 3).exact_div(x * 3) == cube
    assert (cube * 6).exact_div(x * 0 + 2) == cube * 3
    for divisor in (x, x * 2 + 1, MultiPoly.variable("u") * y,
                    MultiPoly.constant(2)):
        with pytest.raises(NotDivisibleError):
            cube.exact_div(divisor)


class TestIntCoefficients:
    def test_integral_fractions_are_stored_as_ints(self):
        # integral rationals read from JSON ("6/3", "-4") become plain ints
        p = MultiPoly.from_json({"variables": ["x"], "terms": [
            {"coefficient": "6/3", "exponents": [1]},
            {"coefficient": "-4", "exponents": [0]}]})
        assert p.terms == {(1,): 2, (0,): -4}
        assert all(type(c) is int for c in p.terms.values())
        assert type(MultiPoly.constant(True).terms[()]) is int
        assert type(x.terms[(1,)]) is int
        assert_canonical((x * 3 + x * -3 + y).derivative("y"))

    def test_fraction_coefficients_are_refused(self):
        for c in (F(1, 2), F(2), 0.5):
            with pytest.raises(TypeError):
                MultiPoly(("x",), {(1,): c})
            with pytest.raises(TypeError):
                MultiPoly.constant(c)
        with pytest.raises(ValueError):
            MultiPoly.from_json({"variables": ["x"], "terms": [
                {"coefficient": "1/2", "exponents": [1]}]})

    def test_quotient_of_ints_is_an_int_or_refused(self):
        for p, q in ((x, x * 2), (x * 6 + 4, MultiPoly.constant(4)),
                     (x * 6 + 4, 4)):
            with pytest.raises(NotDivisibleError):
                p.exact_div(q)
        r = (x * 8 + 4).exact_div(MultiPoly.constant(4))
        assert r.terms == {(1,): 2, (0,): 1}
        assert_canonical(r)
        assert_canonical((x * 6).exact_div(3))

    def test_non_divisor_raises(self):
        with pytest.raises(NotDivisibleError):
            (x * y + 1).exact_div(x * 2)
        with pytest.raises(NotDivisibleError):
            (x ** 2 * 3).exact_div(x * y)

    def test_to_json_of_int_matches_fraction(self):
        # an int coefficient is written as format_rational writes it
        p = x ** 2 * 3 - y * 5 + 7
        assert p.to_json() == {
            "variables": ["x", "y"],
            "terms": [{"coefficient": format_rational(F(c)), "exponents": e}
                      for c, e in ((7, [0, 0]), (-5, [0, 1]), (3, [2, 0]))]}
        assert str(p) == "3*x^2 + -5*y + 7"

    def test_public_constructor_keeps_its_checks(self):
        for vs, terms, err in ((("y", "x"), {}, ValueError),
                               (("x",), {(1, 0): 1}, ValueError),
                               (("x",), {(-1,): 1}, ValueError),
                               (("x",), {(1,): 0.5}, TypeError)):
            with pytest.raises(err):
                MultiPoly(vs, terms)


class TestInputValidation:
    def test_non_int_exponent_is_refused(self):
        with pytest.raises(TypeError):
            MultiPoly(("x",), {(1.5,): 1})
        with pytest.raises(TypeError):
            MultiPoly(("x",), {(2.0,): 1})
        with pytest.raises(TypeError):
            MultiPoly.from_json({"variables": ["x"], "terms": [
                {"coefficient": "3", "exponents": [0.5]}]})

    def test_bool_exponent_is_refused(self):
        with pytest.raises(TypeError):
            MultiPoly(("x",), {(True,): 1})
        with pytest.raises(TypeError):
            MultiPoly.from_json({"variables": ["x", "y"], "terms": [
                {"coefficient": "1", "exponents": [1, False]}]})

    def test_repeated_variable_is_refused(self):
        for vs in (("x", "x"), ("a", "b", "b")):
            with pytest.raises(ValueError):
                MultiPoly(vs, {})
        with pytest.raises(ValueError):
            MultiPoly.from_json({"variables": ["x", "x"], "terms": []})

    def test_duplicate_monomial_in_json_is_refused(self):
        with pytest.raises(ValueError):
            MultiPoly.from_json({"variables": ["x"], "terms": [
                {"coefficient": "3", "exponents": [1]},
                {"coefficient": "4", "exponents": [1]}]})


# -- packed keys against a tuple-keyed reference --------------------------------
# Exponents near the guard bit of 8-, 16-, 32- and 64-bit fields, where a
# polynomial's field width must grow, mixed with small ones.
BOUNDARY_EXPONENTS = [126, 127, 128, 129, 2 ** 15 - 1, 2 ** 15,
                      2 ** 31 - 1, 2 ** 31, 2 ** 63 - 1, 2 ** 63]
wide_exponents = st.one_of(st.integers(0, 3), st.sampled_from(BOUNDARY_EXPONENTS))

wide_polys = polys_over([("u",), ("v", "w"), ("u", "v"), ("u", "v", "w")],
                        max_size=4, exponents=wide_exponents)


def assert_packed(p: MultiPoly):
    """The exponent bound of p holds every exponent and lies below the
    guard bit of its width."""
    assert p._top < 2 ** (p._w - 1)
    assert all(max(e, default=0) <= p._top for e in p.terms)


def narrowest_width(top):
    w = 8
    while top >= 2 ** (w - 1):
        w *= 2
    return w


def ref_rows(p: dict, vs) -> dict:
    """A reference dict as {exponent tuple over vs: coeff}."""
    return {tuple(dict(m).get(v, 0) for v in vs): c for m, c in p.items()}


def ref_div(a: dict, b: dict):
    """Long division of reference dicts by lex-leading terms over the
    variables of both, on exponent tuples; None when b does not divide a."""
    vs = sorted({v for p in (a, b) for m in p for v, _ in m})
    rem, q = ref_rows(a, vs), ref_rows(b, vs)
    lt = max(q)
    quo = {}
    while rem:
        lead = max(rem)
        d = tuple(x - y for x, y in zip(lead, lt))
        c = rem[lead] / q[lt]
        if min(d, default=0) < 0 or c.denominator != 1:
            return None
        quo[tuple((v, k) for v, k in zip(vs, d) if k)] = c
        for e, cq in q.items():
            t = tuple(x + y for x, y in zip(e, d))
            s = rem.get(t, F(0)) - c * cq
            if s:
                rem[t] = s
            else:
                del rem[t]
    return quo


def ref_eval(p: dict, point) -> F:
    total = F(0)
    for m, c in p.items():
        for v, k in m:
            c *= F(point[v]) ** k
        total += c
    return total


def ref_str(p: dict) -> str:
    vs = sorted({v for m in p for v, _ in m})
    parts = []
    for e, c in sorted(ref_rows(p, vs).items(), reverse=True):
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(vs, e) if k)
        parts.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(parts) or "0"


@settings(max_examples=150, deadline=None)
@given(wide_polys, wide_polys)
def test_packed_arithmetic_matches_tuple_reference(p, q):
    rp, rq = ref_of(p), ref_of(q)
    # the product of a sum and a difference needs the exponent bounds
    # that the sum and the difference carry to widen its operands
    for result, expected in ((p + q, ref_add(rp, rq)),
                             (p - q, ref_add(rp, rq, -1)),
                             (p * q, ref_mul(rp, rq)),
                             (q * p, ref_mul(rp, rq)),
                             ((p + q) * (p - q), ref_mul(ref_add(rp, rq),
                                                         ref_add(rp, rq, -1)))):
        assert_canonical(result)
        assert_packed(result)
        assert ref_of(result) == expected
    for var in ("u", "v", "w"):
        assert_packed(p.derivative(var))
        assert ref_of(p.derivative(var)) == ref_derivative(rp, var)
    assert p.to_json() == ref_to_json(rp)
    assert str(p) == ref_str(rp) and str(p * q) == ref_str(ref_mul(rp, rq))
    # values in {-1, 0, 1} keep the powers of the huge exponents small
    for values in ((1, 1, 1), (-1, 1, -1), (0, -1, 1)):
        point = dict(zip(("u", "v", "w"), values))
        assert p.evaluate(point) == ref_eval(rp, point)


@settings(max_examples=150, deadline=None)
@given(wide_polys, wide_polys, mixed_polys, mixed_polys)
def test_packed_exact_div_matches_tuple_reference(p, q, small_p, small_q):
    # exact quotients at every width; any quotient of small exponents, for
    # a failing long division that the point test lets through takes as
    # many steps as the exponents allow
    if not q.is_zero:
        quotient = (p * q).exact_div(q)
        assert_packed(quotient)
        assert ref_of(quotient) == ref_of(p)
    if small_q.is_zero:
        return
    expected = ref_div(ref_of(small_p), ref_of(small_q))
    if expected is None:
        with pytest.raises(NotDivisibleError):
            small_p.exact_div(small_q)
    else:
        assert ref_of(small_p.exact_div(small_q)) == expected


def test_long_division_stops_above_the_dividends_degrees():
    # each step of v^N / (v + w^3) trades a factor v for w^3; the first
    # remainder term with a w already exceeds the dividend's degree in w
    for n in (5, 2 ** 63):
        dividend = MultiPoly(("v", "w"), {(n, 0): 1})
        with pytest.raises(NotDivisibleError):
            dividend.exact_div(MultiPoly(("v", "w"), {(1, 0): 1, (0, 3): 1}))
    assert ref_div(ref_of(x ** 5), ref_of(x + y ** 3)) is None


SUM_UV = MultiPoly.variable("u") + MultiPoly.variable("v")
POWER_SUMS = {n: MultiPoly.variable("u") ** n + MultiPoly.variable("v") ** n
              for n in (2, 9, 10)}


class TestPointTest:
    """Long division is refused at once where the dividend's value at
    x0 = (2, 3, 4, ...) is no multiple of the divisor's."""

    def test_power_sums_fail_at_once(self):
        # u^N + v^N by u + v with N even: long division alone runs N steps
        u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
        for n in (2, 10, 2 ** 20, 2 ** 63):
            start = time.perf_counter()
            with pytest.raises(NotDivisibleError):
                (u ** n + v ** n).exact_div(u + v)
            assert time.perf_counter() - start < 1
        assert (u ** 9 + v ** 9).exact_div(u + v) == sum(
            (u ** (8 - i) * v ** i * (-1) ** i for i in range(9)),
            MultiPoly.zero())

    def test_nothing_is_shown_where_it_does_not_apply(self):
        u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
        # v - u is 1 at (u, v) = (2, 3), and u^65 + 1 is over the exponent
        # limit of the evaluation: long division decides
        for b in (v - u, u ** 65 + 1):
            a, b = align_all((u ** 3 + v, b))
            assert not multipoly._not_a_multiple_at_a_point(a, b)
            with pytest.raises(NotDivisibleError):
                a.exact_div(b)
        assert ((u ** 65 + 1) * (u + v)).exact_div(u ** 65 + 1) == u + v

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(mixed_polys, wide_polys), polys_over(
        [("u", "v"), ("v", "w"), ("u", "v", "w")], min_size=2))
    def test_exact_quotients_are_unchanged(self, p, q):
        # q has integer coefficients, so no product p*q is refused, and the
        # quotient is the one long division gives without the test
        if len(q.terms) < 2:
            return
        a, b = align_all((p * q, q))
        assert not multipoly._not_a_multiple_at_a_point(a, b)
        quotient = (p * q).exact_div(q)
        assert quotient == p and quotient.to_json() == p.to_json()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multipoly, "_not_a_multiple_at_a_point",
                       lambda a, b: False)
            plain = (p * q).exact_div(q)
        assert plain.to_json() == quotient.to_json()
        assert str(plain) == str(quotient)

    @settings(max_examples=150, deadline=None)
    @given(mixed_polys, polys_over([("u", "v"), ("u", "v", "w")], min_size=2))
    @example(POWER_SUMS[2], SUM_UV)
    @example(POWER_SUMS[10], SUM_UV)
    @example(POWER_SUMS[9], SUM_UV)
    def test_outcomes_are_those_of_long_division(self, p, q):
        # on small exponents, whether q divides p, and the quotient, are
        # what long division alone gives
        if len(q.terms) < 2:
            return

        def outcome():
            try:
                return p.exact_div(q).to_json()
            except NotDivisibleError:
                return None
        with_test = outcome()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multipoly, "_not_a_multiple_at_a_point",
                       lambda a, b: False)
            assert outcome() == with_test


@pytest.mark.parametrize("divisor", [
    MultiPoly(("v",), {(1,): 1}),                     # one term
    MultiPoly(("v", "w"), {(1, 0): 1, (0, 1): 1})])   # long division
def test_borrow_in_a_middle_field_only(divisor):
    # u*w^5 / v: only the middle field, v's, borrows; as a plain int
    # difference the borrow would be taken from u's field and leave w's
    # as it is
    dividend = MultiPoly(("u", "v", "w"), {(1, 0, 5): 1, (0, 0, 1): 3})
    with pytest.raises(NotDivisibleError):
        dividend.exact_div(divisor)
    assert ref_div(ref_of(dividend), ref_of(divisor)) is None
    assert (dividend * divisor).exact_div(divisor) == dividend


@settings(max_examples=100, deadline=None)
@given(wide_polys, st.sampled_from(BOUNDARY_EXPONENTS))
def test_eq_and_hash_across_widths_and_namespaces(p, k):
    # the same polynomial over a wider field (a quotient keeps the width
    # of its dividend) and over a larger namespace
    big = MultiPoly(("x",), {(k,): 1})
    wide = (p * big).exact_div(big)
    padded = p + MultiPoly(("a", "z"), {})
    for other in (wide, padded):
        assert other == p and p == other
        assert hash(other) == hash(p)
        assert other.to_json() == p.to_json() and str(other) == str(p)
    assert wide._w >= narrowest_width(k) and "x" in wide.variables
    assert padded.variables == tuple(sorted({"a", "z", *p.variables}))
    assert (p + 1 == wide + 1) and (p * 3 == wide * 3)


@pytest.mark.parametrize("w", [8, 16, 32, 64])
def test_width_grows_past_the_guard_bit(w):
    edge = 2 ** (w - 1) - 1
    u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
    at = MultiPoly(("u", "v"), {(edge, 1): 2, (1, edge): -1})
    assert at._w == w
    past = at * u
    assert past._w == 2 * w
    assert past.terms == {(edge + 1, 1): 2, (2, edge): -1}
    assert MultiPoly(("u",), {(edge + 1,): 1})._w == 2 * w
    assert ref_of(at * at) == ref_mul(ref_of(at), ref_of(at))
    assert (past * v).exact_div(u * v) == at
    assert past.derivative("u").terms == {(edge, 1): 2 * (edge + 1),
                                          (1, edge): -2}


ROUND_TRIPS = [copy.copy, copy.deepcopy,
               lambda p: pickle.loads(pickle.dumps(p)),
               lambda p: pickle.loads(pickle.dumps(p, protocol=0))]


@settings(max_examples=60, deadline=None)
@given(wide_polys, st.sampled_from(ROUND_TRIPS))
def test_copy_and_pickle_round_trips(p, round_trip):
    # widths of 8 to 128 bits (a^200 alone needs 16, and a quotient keeps
    # the width of its dividend): the copy keeps the namespace, width,
    # exponent bound and packed keys, and so == and hash
    big = MultiPoly(("x",), {(2 ** 40,): 1})
    for q in (p, p * p + MultiPoly(("a",), {(200,): 3}),
              (p * big).exact_div(big)):
        r = round_trip(q)
        assert r.__class__ is MultiPoly
        assert (r.variables, r._w, r._top) == (q.variables, q._w, q._top)
        assert r._terms == q._terms and r.terms == q.terms
        assert r == q and hash(r) == hash(q) and str(r) == str(q)
        assert r * q == q * q and r - q == 0


@pytest.mark.parametrize("round_trip", ROUND_TRIPS)
def test_symbolic_series_and_generic_forms_round_trip(round_trip):
    f = BinaryForm.generic(3)
    series = dr_series(f, BinaryForm.generic(1, "b"), mode="symbolic")
    for value in (f, series):
        assert round_trip(value) == value
    copied = round_trip(series)
    assert isinstance(copied, DRSeries) and copied.to_json() == series.to_json()
    with pytest.raises(AttributeError):
        round_trip(MultiPoly.variable("x")).variables = ("y",)
