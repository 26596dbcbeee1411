import hashlib
import json
import math
import random
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drbracket import brackets
from drbracket.brackets import (AssignmentBudgetError, BracketPolynomial,
                                BracketSumUndefinedError,
                                _all_brackets_nonzero, _expand, all_symbols,
                                alpha, assignment_to_json, beta, bracket_eval,
                                canonicalize, coordinate_point,
                                coordinate_vars, derive_seed, dr_bracket_sum,
                                forms_from_assignment, generic_points,
                                plucker_relation, random_generic_assignment,
                                subsets_colex, verify_theorem1)
from drbracket.multipoly import MultiPoly
from drbracket.verify import passed

import sampler_oracle
from oracles import term_factors


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


class TestDegree:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_every_term_of_a_bracket_sum_has_its_degree(self, n):
        for r in range(n + 1):
            bp = dr_bracket_sum(n, r)
            assert {len(factors) for factors in bp.terms} == {bp.degree()}

    def test_longest_term_of_a_built_polynomial(self):
        bp = BracketPolynomial(3)
        assert bp.degree() == 0
        bp.add_term([(alpha(1), alpha(2))] * 3)
        bp.add_term([(alpha(1), beta(1))])
        assert bp.degree() == 3


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
        copy = BracketPolynomial(5, p.terms)
        copy.terms[next(iter(copy.terms))] += 1
        copy.add_term([(alpha(1), beta(1))])
        assert p == q == dr_bracket_sum(5, 2) == reference_bracket_sum(5, 2)
        assert copy != p

    def test_terms_are_a_private_copy(self):
        # reads never change a sum; a copy of its terms can be changed, and
        # evaluates what it holds
        n, r = 5, 2
        saved = list(reference_bracket_sum(n, r).terms.items())
        A = random_generic_assignment(n, 4)
        p = dr_bracket_sum(n, r)
        before = p.evaluate(A)
        terms = p.terms
        assert list(terms.items()) == saved
        key = next(iter(terms))
        terms[key] += 1
        assert p.evaluate(A) == before
        assert list(p.terms.items()) == saved
        copy = BracketPolynomial(n, p.terms)
        copy.terms[key] += 1
        assert copy.evaluate(A) == reference_evaluate(copy, A) != before
        del copy.terms[key]
        copy.add_term([(alpha(1), beta(1))], 2)
        assert copy.evaluate(A) == reference_evaluate(copy, A)
        assert p.evaluate(A) == before
        assert list(p.terms.items()) == saved


@pytest.mark.parametrize("n, r", [(5, 2), (12, 6)])
class TestReadOnlySum:
    """A sum from dr_bracket_sum is read-only: each read of its terms builds
    a new dict, and no read changes the sum or how it is evaluated."""

    def test_each_read_builds_new_terms(self, n, r):
        p = dr_bracket_sum(n, r)
        assert p.terms is not p.terms
        assert p.terms == p.terms

    @pytest.mark.parametrize("read", [len, lambda p: p == p,
                                      lambda p: p.to_json()],
                             ids=["len", "eq", "to_json"])
    def test_reads_leave_the_value_alone(self, n, r, read):
        A = random_generic_assignment(n, 4)
        p = dr_bracket_sum(n, r)
        before = p.evaluate(A)
        read(p)
        terms = p.terms
        terms[next(iter(terms))] += 1
        assert BracketPolynomial(n, terms).evaluate(A) != before
        read(p)
        assert p.evaluate(A) == before
        assert before == BracketPolynomial(n, p.terms).evaluate(A)

    def test_add_term_raises(self, n, r):
        A = random_generic_assignment(n, 4)
        p = dr_bracket_sum(n, r)
        before = p.evaluate(A)
        with pytest.raises(TypeError,
                           match=r"BracketPolynomial\(n, p\.terms\)"):
            p.add_term([(alpha(1), beta(1))])
        assert p.evaluate(A) == before
        assert p == dr_bracket_sum(n, r)


class TestEvaluate:
    @staticmethod
    def polynomials():
        yield BracketPolynomial(4)
        yield plucker_relation(alpha(1), alpha(3), beta(1), beta(2))
        for n in (3, 4, 5, 6):
            for r in range(n + 1):
                yield dr_bracket_sum(n, r)
        p = BracketPolynomial(4, dr_bracket_sum(4, 2).terms)
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

    def test_each_bracket_computed_once(self):
        # each symbol the sum needs is read once, and each bracket it needs,
        # [s, t] = u_s*v_t - u_t*v_s, takes its two products once each
        for n in range(2, 9):
            point = random_generic_assignment(n, 1)
            for r in all_r(n):
                p = dr_bracket_sum(n, r)
                counting = CountingPoint(point)
                assert p.evaluate(counting) == reference_evaluate(p, point)
                needed = {pair for factors in p.terms for pair in factors}
                if (n, r) == (2, 1):
                    # the two terms cancel, but the product still has [a1, a2]
                    assert needed == set()
                    needed = {(alpha(1), alpha(2))}
                assert counting.products == Counter(
                    [(s, t) for s, t in needed] + [(t, s) for s, t in needed])
                assert counting.reads == Counter(
                    {x for pair in needed for x in pair})
                if r == 0:
                    assert all(s[0] == "a" for s in counting.reads)
                # substitute calls image on each [a_i, a_j] when r < n, then
                # on each [a_i, b_k] when r > 0, each in canonical order;
                # the products of the images, the Laurent rows among them,
                # are built in that order
                calls = []
                p.substitute(lambda pair: calls.append(pair) or 1)
                assert calls == (
                    [(alpha(i), alpha(j)) for i in range(1, n + 1)
                     for j in range(i + 1, n + 1)] * (r < n)
                    + [(alpha(i), beta(k)) for i in range(1, n + 1)
                       for k in range(1, n - 1)] * (r > 0))


class Coordinate:
    """An int coordinate of a symbol that counts the products it is in."""

    def __init__(self, symbol, value, products):
        self.symbol, self.value, self.products = symbol, value, products

    def __mul__(self, other):
        self.products[self.symbol, other.symbol] += 1
        return self.value * other.value


class CountingPoint(Mapping):
    """A point that counts the reads of each symbol, and whose coordinates
    count the products of each ordered pair of symbols."""

    def __init__(self, point):
        self.point, self.reads, self.products = point, Counter(), Counter()

    def __getitem__(self, s):
        self.reads[s] += 1
        return tuple(Coordinate(s, x, self.products) for x in self.point[s])

    def __iter__(self):
        return iter(self.point)

    def __len__(self):
        return len(self.point)


def detached(n, r):
    """dr_bracket_sum(n, r) built term by term from a copy of its terms,
    so it is evaluated one factor at a time."""
    return BracketPolynomial(n, dict(dr_bracket_sum(n, r).terms))


def all_r(n):
    return [r for r in range(n + 1) if (n, r) != (2, 2)]


def multiplied_out(xs, ys, zero, one):
    """The coefficients of t^0..t^n of prod_j (X_j + t*Y_j), multiplied
    out in full."""
    coeffs = [one]
    for x, y in zip(xs, ys):
        coeffs = [(coeffs[k] * x if k < len(coeffs) else zero)
                  + (coeffs[k - 1] * y if k else zero)
                  for k in range(len(coeffs) + 1)]
    return coeffs


class TestChunkedEvaluate:
    """dr_bracket_sum's product form, on the X_j and Y_j of _product_table."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_integer_points(self, n):
        # equal to the per-factor loop, also after the sum's terms are read
        points = generic_points(n, 2, 17)
        for r in all_r(n):
            p, q = dr_bracket_sum(n, r), detached(n, r)
            want = [q.evaluate(point) for point in points]
            assert [p.evaluate(point) for point in points] == want
            assert len(p) == len(q)
            assert [p.evaluate(point) for point in points] == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coordinate_point(self, n):
        point = coordinate_point(all_symbols(n))
        for r in all_r(n):
            assert (dr_bracket_sum(n, r).evaluate(point)
                    == detached(n, r).evaluate(point))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_laurent_rows(self, n):
        from drbracket.laurent import PolygonModel, laurent_expand_poly
        model = PolygonModel(n)
        for r in all_r(n):
            assert (laurent_expand_poly(model, dr_bracket_sum(n, r))
                    == laurent_expand_poly(model, detached(n, r)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_image_called_once_per_distinct_pair(self, n):
        point = random_generic_assignment(n, 2)
        for r in all_r(n):
            seen = Counter()

            def image(pair):
                seen[pair] += 1
                return bracket_eval(pair[0], pair[1], point)
            p = dr_bracket_sum(n, r)
            p.substitute(image)
            if (n, r) == (2, 1):
                # the two terms cancel, but the product still has [a1, a2]
                assert p.terms == {}
                assert seen == Counter({(alpha(1), alpha(2)): 1})
                continue
            assert seen == Counter(
                {f for factors in p.terms for f in factors})
            if r == 0:
                assert all(t[0] == "a" for _, t in seen)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n), st.lists(
            st.integers(-50, 50), min_size=2 * n, max_size=2 * n))))
    def test_product_form_matches_the_multiplied_out_product(self, case):
        n, r, values = case
        xs, ys = values[:n], values[n:]
        assert (brackets._product_form(n, r, xs, ys, 0, 1)
                == multiplied_out(xs, ys, 0, 1)[r])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n), st.lists(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
            min_size=2 * n, max_size=2 * n))))
    def test_product_form_over_polynomials(self, case):
        # each X_j and Y_j a random c0 + c1*u + c2*v, so that the factors'
        # order and the r = 0 and r = n shortcuts are checked symbolically
        n, r, coeffs = case
        u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
        factors = [c0 + c1 * u + c2 * v for c0, c1, c2 in coeffs]
        xs, ys = factors[:n], factors[n:]
        zero, one = MultiPoly.zero(), MultiPoly.constant(1)
        got = brackets._product_form(n, r, xs, ys, zero, one)
        assert got == multiplied_out(xs, ys, zero, one)[r]
        if r in (0, n):  # the unread factors may be missing
            assert brackets._product_form(
                n, r, None if r else xs, ys if r else None, zero, one) == got

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.sampled_from(all_r(n)), st.lists(
            st.integers(-10, 10), min_size=4 * n - 4, max_size=4 * n - 4))))
    def test_table_matches_the_terms(self, case):
        # zero brackets allowed: coordinates may repeat or vanish
        n, r, coords = case
        point = dict(zip(all_symbols(n), zip(coords[0::2], coords[1::2])))
        assert (dr_bracket_sum(n, r).evaluate(point)
                == detached(n, r).evaluate(point))

    def test_checks_build_no_term_dict(self, monkeypatch):
        # a silent fall-back to the per-factor loop would build the terms
        from drbracket import verify
        from drbracket.laurent import PolygonModel, laurent_expand_poly
        model = PolygonModel(4)
        want = laurent_expand_poly(model, detached(4, 2))

        def unbuilt(n, r):
            raise AssertionError(f"built the terms of ({n}, {r})")
        monkeypatch.setattr(brackets, "_bracket_sum_terms", unbuilt)
        assert verify_theorem1(8, trials=3, seed=1)["failures"] == []
        assert verify_theorem1(3, mode="symbolic")["failures"] == []
        for n in (4, 5):
            assert passed(verify.vanishing(n, trials=3, seed=1))
        assert laurent_expand_poly(model, dr_bracket_sum(4, 2)) == want
        for n in (2, 3, 4):
            assert dr_bracket_sum(n, 1).expand_to_coordinates().is_zero

    def test_r0_expansion_needs_no_beta_coordinates(self):
        for n in (3, 4):
            p = dr_bracket_sum(n, 0)
            assert p.expand_to_coordinates() == \
                detached(n, 0).expand_to_coordinates()


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

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_the_randint_sampler(self, n):
        assert sampler_oracle.first_difference(n, range(200)) == ""

    def test_budget_message_matches_the_randint_sampler(self):
        n, seed = sampler_oracle.EXHAUSTED
        message = sampler_oracle.budget_message(
            sampler_oracle.randint_sampler, n, seed)
        assert message.startswith(f"no generic assignment at n={n} among ")
        with pytest.raises(AssignmentBudgetError) as info:
            random_generic_assignment(n, seed)
        assert str(info.value) == message

    # sha256 of the JSON list of assignment_to_json(p) over
    # generic_points(n, 5, seed), keys sorted: the draws of the seeded
    # stream, the same on every interpreter
    DRAW_DIGESTS = {
        (2, 0): "106f183d6d2855d05af9279d9cdec67a3a7f6dd945aa7399e68f0d6256d9b7e6",
        (5, 1): "7c875fbf22a9560d4292618cdab2d9a44f25e8c3f1d90aaf084de9a3cd2c8dcc",
        (8, 0): "808aaae4b94c450d70800d5965390e4f942a68b5148857b96371fcb2d1eac7d9",
        (8, 2211): "e4af8a25bd69ad2430d7c8798896593970baccea925a6ed157d3aca311fcaba6",
        (12, 7): "f032d6143dd75018f8c2442d83299c919dce9ddd7e27e5fb4e8e9cd0dad839f3",
        (16, 3): "b132fa17e18ee454f7d9ed5d5b6504fb5a8c548df99da4ff064c0719bc3379e0",
    }

    @pytest.mark.parametrize("n, seed", sorted(DRAW_DIGESTS))
    def test_pinned_draws(self, n, seed):
        points = [assignment_to_json(p) for p in generic_points(n, 5, seed)]
        blob = json.dumps(points, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.DRAW_DIGESTS[n, seed]


small = st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30)


@st.composite
def vector_lists(draw):
    """Short lists of integer vectors with zeros, zero coordinates and
    scaled copies of other vectors among them."""
    vectors = draw(st.lists(st.tuples(small, small), max_size=7))
    for _ in range(draw(st.integers(0, 2)) if vectors else 0):
        u, v = draw(st.sampled_from(vectors))
        k = draw(st.integers(-4, 4))
        vectors.insert(draw(st.integers(0, len(vectors))), (k * u, k * v))
    return vectors


class TestGenericityTest:
    @settings(max_examples=400, deadline=None)
    @given(vector_lists())
    @example([])
    @example([(0, 0)])
    @example([(3, 1), (0, 0)])
    @example([(2, 4), (-1, -2)])
    @example([(0, 3), (0, -5)])
    @example([(5, 0), (-2, 0)])
    @example([(1, 2), (2, 1), (0, 1), (1, 0), (-1, 1)])
    def test_matches_the_pairwise_test(self, vectors):
        assert (_all_brackets_nonzero(vectors)
                == sampler_oracle.pairwise_nonzero(vectors))


def corrupt_bracket_sum(monkeypatch, bad_r):
    """Make brackets.dr_bracket_sum return, for r = bad_r, a copy of the sum
    with 1 added to one coefficient; at a generic assignment that moves its
    value by a product of nonzero brackets."""
    import drbracket.brackets as brackets
    real = brackets.dr_bracket_sum

    def corrupted(n, r):
        p = real(n, r)
        if r == bad_r:
            p = BracketPolynomial(n, p.terms)
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
        corrupted = BracketPolynomial(n, dr_bracket_sum(n, r).terms)
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

    def test_corrupted_sum_does_not_poison_the_memo(self, monkeypatch):
        # a corrupted copy handed to one run leaves later runs and every
        # later sum as they were: sums are read-only and nothing is kept
        # from one call to the next
        n = 5
        assert verify_theorem1(n, trials=2, seed=3)["failures"] == []
        with monkeypatch.context() as patch:
            corrupt_bracket_sum(patch, 2)
            rep = verify_theorem1(n, trials=2, seed=3)
        assert [(f["trial"], f["r"]) for f in rep["failures"]] == \
            [(0, 2), (1, 2)]
        assert brackets.dr_bracket_sum is dr_bracket_sum
        assert verify_theorem1(n, trials=2, seed=3)["failures"] == []
        for r in range(n + 1):
            assert (list(dr_bracket_sum(n, r).terms.items())
                    == list(reference_bracket_sum(n, r).terms.items()))

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
