import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from drbracket.brackets import (all_symbols, alpha, beta, bracket_eval,
                                derive_seed, dr_bracket_sum,
                                random_generic_assignment, term_factors)
from drbracket.laurent import (DIRECT_N_MAX, LaurentMonomial, LaurentPoly,
                               PolygonModel, boundary_path, degree_matrix_P,
                               dominance_check, dr_rows,
                               laurent_expand_bracket, laurent_expand_poly,
                               lex_leading_monomial, lm_dr_closed_form)
from drbracket.laurent import (_Rows, _from_rows, _model_tables, _monomial,
                               _symbol_rows, _term_lm_row)
from drbracket.multipoly import _product, _sum


def mono(**kw):
    """Shorthand: mono(A1=2, C2=-1) -> LaurentMonomial."""
    exps = {}
    for name, e in kw.items():
        exps[(name[0], int(name[1:]))] = e
    return LaurentMonomial.from_dict(exps)


def mono_product(m1, m2):
    """Reference monomial product: the sparse exponents merged."""
    exps = dict(m1.exponents)
    for v, e in m2.exponents:
        exps[v] = exps.get(v, 0) + e
    return LaurentMonomial.from_dict(exps)


def poly(*terms):
    """LaurentPoly of (monomial, coeff) pairs, like terms added up."""
    out = {}
    for m, c in terms:
        out[m] = out.get(m, 0) + c
    return LaurentPoly(out)


def bracket_values(model, assignment):
    return {v: bracket_eval(s, t, assignment)
            for v, (s, t) in model.defining_brackets().items()}


def test_monomial_variables_sort_in_lex_priority():
    m = LaurentMonomial.from_dict({("D", 1): 1, ("A", 10): 2, ("C", 3): 0,
                                   ("B", 2): -1, ("A", 2): 1, ("C", 1): 4})
    assert m.exponents == ((("A", 2), 1), (("A", 10), 2), (("B", 2), -1),
                           (("C", 1), 4), (("D", 1), 1))
    assert [v for v, _ in m.exponents] == [
        v for v in PolygonModel(12).all_vars() if v in dict(m.exponents)]


def test_monomial_row_follows_the_columns():
    m = mono(A2=1, B1=-3, D2=4)
    assert m.row([("A", 1), ("A", 2), ("B", 1), ("C", 1), ("D", 2)]) == \
        (0, 1, -3, 0, 4)
    assert m.row([("D", 2), ("A", 2)]) == (4, 1)
    assert mono().row([("A", 1)]) == (0,)


class TestBoundaryPath:
    def test_alpha_run(self):
        m = PolygonModel(5)
        assert boundary_path(m, alpha(1), alpha(4)) == [alpha(i) for i in (1, 2, 3, 4)]

    def test_wrap_into_betas(self):
        m = PolygonModel(5)
        assert boundary_path(m, alpha(2), beta(2)) == [alpha(2), alpha(3),
                                                       alpha(4), alpha(5),
                                                       beta(1), beta(2)]

    def test_single_edge(self):
        m = PolygonModel(4)
        assert boundary_path(m, alpha(1), alpha(2)) == [alpha(1), alpha(2)]

    def test_gamma_endpoint_rejected(self):
        m = PolygonModel(4)
        with pytest.raises(ValueError):
            boundary_path(m, alpha(1), m.gamma)


def walk_expand_bracket(model, x, y):
    """Reference expansion of [x, y]: the walk along boundary_path with
    edge_var and diagonal_var that the row tables replaced."""
    if x == y:
        return LaurentPoly()
    if x == model.gamma:
        return poly((LaurentMonomial.from_dict({model.diagonal_var(y): 1}), 1))
    if y == model.gamma:
        return poly((LaurentMonomial.from_dict({model.diagonal_var(x): 1}),
                     -1))
    path = boundary_path(model, x, y)
    k = len(path) - 1
    gx, gy = model.diagonal_var(x), model.diagonal_var(y)
    terms = {}
    for i in range(k):
        exps = {}
        if i > 0:
            exps[gx] = exps.get(gx, 0) + 1
            dv = model.diagonal_var(path[i])
            exps[dv] = exps.get(dv, 0) - 1
        if i < k - 1:
            exps[gy] = exps.get(gy, 0) + 1
            dv = model.diagonal_var(path[i + 1])
            exps[dv] = exps.get(dv, 0) - 1
        edge, sign = model.edge_var(path[i], path[i + 1])
        exps[edge] = exps.get(edge, 0) + 1
        m = LaurentMonomial.from_dict(exps)
        terms[m] = terms.get(m, 0) + sign
    return LaurentPoly(terms)


def sparse_product(p, q):
    """Reference product: every pair of terms, monomials multiplied by
    merging their sparse exponents."""
    return poly(*((mono_product(m1, m2), c1 * c2)
                  for m1, c1 in p.terms.items()
                  for m2, c2 in q.terms.items()))


def sparse_expand_poly(model, bp):
    """Reference laurent_expand_poly: each term's walk expansions
    multiplied by sparse_product, the products summed."""
    total = {}
    for factors, coeff in bp.terms.items():
        prod = poly((mono(), coeff))
        for x, y in factors:
            prod = sparse_product(prod, walk_expand_bracket(model, x, y))
        for m, c in prod.terms.items():
            total[m] = total.get(m, 0) + c
    return LaurentPoly(total)


def random_laurent_poly(rng, variables, coefficients):
    return poly(*((LaurentMonomial.from_dict(
        {v: rng.randint(-2, 2)
         for v in rng.sample(variables, rng.randint(0, 3))}),
        rng.choice(coefficients)) for _ in range(rng.randint(0, 6))))


def rows_of(p, columns):
    return {m.row(columns): c for m, c in p.terms.items()}


class TestRowKernel:
    """The row tables and the row product against the sparse references."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_bracket_matches_the_boundary_walk(self, n):
        model = PolygonModel(n)
        for x, y in itertools.permutations(model.vertices, 2):
            got = laurent_expand_bracket(model, x, y)
            assert got == walk_expand_bracket(model, x, y), (x, y)
            assert all(type(c) is int for c in got.terms.values())
        assert laurent_expand_bracket(model, alpha(1), alpha(1)).is_zero

    @pytest.mark.parametrize("n, r", [(3, r) for r in range(4)]
                             + [(4, r) for r in range(5)] + [(5, 0), (5, 5)])
    def test_poly_matches_the_sparse_product(self, n, r):
        model = PolygonModel(n)
        bp = dr_bracket_sum(n, r)
        got = laurent_expand_poly(model, bp)
        assert got == sparse_expand_poly(model, bp)
        assert got.is_zero == (r == 1)
        assert all(type(c) is int for c in got.terms.values())

    def test_poly_with_fraction_coefficients(self):
        from drbracket.brackets import BracketPolynomial
        model = PolygonModel(4)
        bp = BracketPolynomial(4)
        bp.add_term([(alpha(1), alpha(3)), (alpha(2), beta(1))], F(1, 2))
        bp.add_term([(alpha(1), alpha(3)), (alpha(2), beta(1))], F(1, 3))
        bp.add_term([(alpha(4), alpha(1))], F(-2, 7))
        assert laurent_expand_poly(model, bp) == sparse_expand_poly(model, bp)

    def test_product_matches_the_sparse_reference(self):
        # _product over a model's columns, converted back by
        # _from_rows, against the term-by-term sparse product
        rng = random.Random(73)
        columns = _model_tables(10)[0]
        variables = [("A", 1), ("A", 2), ("A", 10), ("B", 1), ("C", 1),
                     ("C", 3), ("D", 2)]
        cases = [(-2, -1, 1, 2), (F(1, 2), F(-1, 2), F(2, 3), 3, -1)]
        merged = 0
        for coefficients in cases:
            for _ in range(300):
                p = random_laurent_poly(rng, variables, coefficients)
                q = random_laurent_poly(rng, variables, coefficients)
                rows = _product(rows_of(p, columns), rows_of(q, columns))
                got = _from_rows(columns, rows)
                assert got == sparse_product(p, q)
                assert all(c != 0 for c in rows.values())
                for m in got.terms:
                    assert m == LaurentMonomial.from_dict(dict(m.exponents))
                merged += len(got.terms) < len(p.terms) * len(q.terms)
        assert merged > 0
        # (x + y)(x - y): the cross terms cancel
        x, y = mono(A1=1, C3=-2), mono(A2=-1)
        plus = _Rows(rows_of(poly((x, 1), (y, F(1, 2))), columns))
        minus = _Rows(rows_of(poly((x, 1), (y, F(-1, 2))), columns))
        got = _from_rows(columns, (plus * minus).terms)
        assert got.terms == {mono(A1=2, C3=-4): 1, mono(A2=-2): F(-1, 4)}
        assert (plus * 3).terms == (3 * plus).terms == \
            _product(plus.terms, rows_of(poly((mono(), 3)), columns))

    def test_row_kernels_drop_zero_coefficients(self):
        # the rows of laurent_expand_poly never pass through LaurentPoly's
        # constructor until the end, so the kernels drop zeros themselves
        x, y = (1, 0, -2), (0, -1, 0)
        p, q = {x: 1, y: F(1, 2)}, {x: 1, y: F(-1, 2)}
        assert _product(p, q) == {(2, 0, -4): 1, (0, -2, 0): F(-1, 4)}
        assert _sum(p, q.items()) == {x: 2}
        assert _sum({}, {y: 0}.items()) == {}

    def test_symbol_outside_the_model_is_rejected(self):
        model = PolygonModel(4)
        for x, y in [(alpha(1), alpha(9)), (model.gamma, beta(7)),
                     (beta(5), alpha(2)), (alpha(9), alpha(9))]:
            with pytest.raises(ValueError):
                laurent_expand_bracket(model, x, y)


class TestExpansion:
    def test_edge_bracket_is_its_variable(self):
        m = PolygonModel(4)
        assert laurent_expand_bracket(m, alpha(1), alpha(2)) == \
            poly((mono(C1=1), 1))

    def test_one_step_plucker(self):
        m = PolygonModel(4)
        p = laurent_expand_bracket(m, alpha(1), alpha(3))
        assert p == poly((mono(A1=1, A2=-1, C2=1), 1),
                         (mono(A3=1, A2=-1, C1=1), 1))

    def test_gamma_base_case(self):
        m = PolygonModel(5)
        assert laurent_expand_bracket(m, alpha(2), m.gamma) == \
            poly((mono(A2=1), -1))

    def test_antisymmetry(self):
        m = PolygonModel(5)
        p = laurent_expand_bracket(m, alpha(4), alpha(1))
        q = laurent_expand_bracket(m, alpha(1), alpha(4))
        assert p.terms == {t: -c for t, c in q.terms.items()}

    def test_evaluation_compatibility(self):
        for n in (3, 4, 5, 6):
            m = PolygonModel(n)
            syms = all_symbols(n)
            for trial in range(10):
                A = random_generic_assignment(n, derive_seed(61, (n, trial)))
                vals = bracket_values(m, A)
                for x, y in itertools.combinations(syms, 2):
                    p = laurent_expand_bracket(m, x, y)
                    assert p.evaluate(vals) == bracket_eval(x, y, A)

    def test_denominator_discipline(self):
        for n in (3, 4, 5, 6):
            m = PolygonModel(n)
            inv = set(m.invertible_vars())
            for x, y in itertools.combinations(all_symbols(n), 2):
                for t in laurent_expand_bracket(m, x, y).terms:
                    for v, e in t.exponents:
                        assert e >= 0 or v in inv

    def test_expand_discriminant_sum(self):
        # (A1*A2^-1*C2 + A3*A2^-1*C1)^2 * C1^2 * C2^2 has three monomials;
        # the leading one carries coefficient +-1
        m = PolygonModel(3)
        p = laurent_expand_poly(m, dr_bracket_sum(3, 0))
        lead = lex_leading_monomial(p, m)
        assert lead == mono(A1=2, A2=-2, C1=2, C2=4)
        assert abs(p.terms[lead]) == 1

    def test_expand_vanishing_sum(self):
        for n in (3, 4):
            m = PolygonModel(n)
            assert laurent_expand_poly(m, dr_bracket_sum(n, 1)).is_zero

    def test_expand_empty(self):
        from drbracket.brackets import BracketPolynomial
        m = PolygonModel(4)
        assert laurent_expand_poly(m, BracketPolynomial(4)).is_zero


def evaluate_fraction(p, values):
    """Per-term rational evaluation, the reference for LaurentPoly.evaluate."""
    total = F(0)
    for m, c in p.terms.items():
        term = F(c)
        for v, e in m.exponents:
            term *= F(values[v]) ** e
        total += term
    return total


class TestEvaluate:
    VARS = [("A", 1), ("A", 2), ("A", 10), ("B", 1), ("C", 1), ("D", 2)]

    def test_matches_fraction_reference(self):
        rng = random.Random(71)
        kinds = set()
        for _ in range(400):
            p = poly(*((LaurentMonomial.from_dict(
                {v: rng.randint(-3, 3)
                 for v in rng.sample(self.VARS, rng.randint(0, 3))}),
                rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))))
            values = {v: rng.choice([-4, -3, -2, -1, 1, 2, 3, 5])
                      for v in self.VARS}
            got = p.evaluate(values)
            want = evaluate_fraction(p, values)
            assert got == want
            if want.denominator == 1:
                assert type(got) is int
            else:
                assert type(got) is F
                assert (got.numerator, got.denominator) == \
                    (want.numerator, want.denominator)
            kinds.add(type(got))
        assert kinds == {int, F}

    def test_fraction_coefficient(self):
        p = poly((mono(A1=1, A2=-1), F(1, 2)))
        assert p.evaluate({("A", 1): 3, ("A", 2): 3}) == F(1, 2)
        assert p.evaluate({("A", 1): 4, ("A", 2): 1}) == 2

    def test_zero_inverted_value_raises(self):
        p = poly((mono(A1=1), 1), (mono(A2=-1, C1=2), 1))
        with pytest.raises(ZeroDivisionError):
            p.evaluate({("A", 1): 1, ("A", 2): 0, ("C", 1): 3})
        # a zero value is fine where the variable is not inverted
        assert p.evaluate({("A", 1): 0, ("A", 2): 2, ("C", 1): 0}) == 0

    def test_zero_polynomial(self):
        assert LaurentPoly().evaluate({}) == 0


class TestLeadingMonomial:
    def test_lex_pick(self):
        m = PolygonModel(3)
        p = poly((mono(A1=1, A2=-1, C2=1), 1), (mono(A3=1, A2=-1, C1=1), 1))
        assert lex_leading_monomial(p, m) == mono(A1=1, A2=-1, C2=1)

    def test_single_monomial(self):
        m = PolygonModel(3)
        p = poly((mono(C2=3), F(5)))
        assert lex_leading_monomial(p, m) == mono(C2=3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lex_leading_monomial(LaurentPoly(), PolygonModel(3))

    def test_multiplicativity(self):
        # on rows over the model's columns, which are in lex priority
        # order: the largest row of a product is the column-by-column sum
        # of the factors' largest rows
        rng = random.Random(67)
        m = PolygonModel(5)
        columns = _model_tables(5)[0]

        def rand_rows():
            return {tuple(rng.randint(-2, 3) if rng.random() < 0.3 else 0
                          for _ in columns): F(rng.randint(1, 9))
                    for _ in range(rng.randint(1, 5))}

        def lm(rows):
            return lex_leading_monomial(_from_rows(columns, rows), m)
        for _ in range(50):
            p, q = rand_rows(), rand_rows()
            pq = _product(p, q)
            assert max(pq) == tuple(a + b for a, b in zip(max(p), max(q)))
            assert lm(pq) == mono_product(lm(p), lm(q))


def bracket_lm_rows(n, factors):
    """Column sum of the expanded leading monomials' rows of ``factors``."""
    model = PolygonModel(n)
    columns = _model_tables(n)[0]
    total = (0,) * len(columns)
    for x, y in factors:
        lm = lex_leading_monomial(laurent_expand_bracket(model, x, y), model)
        total = tuple(a + b for a, b in zip(total, lm.row(columns)))
    return total


def hand_lm_dr(n, r):
    """The hand-derived leading monomial of DR_{n,r}: each bracket's lm
    bumped into the exponents one variable at a time."""
    exps = {}

    def bump(v, e):
        exps[v] = exps.get(v, 0) + e

    for j in range(r + 1, n + 1):
        for i in range(1, j):
            bump(("A", i), 1)
            bump(("A", j - 1), -1)
            bump(("C", j - 1), 1)
        for i in range(j + 1, n + 1):
            bump(("A", j), 1)
            bump(("A", i - 1), -1)
            bump(("C", i - 1), 1)
    for k in range(1, n - 2):  # k in [n-3], with B_0 = A_n and D_0 = C_n
        b = ("A", n) if k == 1 else ("B", k - 1)
        d = ("C", n) if k == 1 else ("D", k - 1)
        bump(b, -r)
        bump(d, r)
    for i in range(1, r + 1):
        bump(("A", i), n - 2)
    return LaurentMonomial.from_dict(exps)


class TestClosedForms:
    def test_lm_dr_examples(self):
        assert lm_dr_closed_form(3, 0) == mono(A1=2, A2=-2, C1=2, C2=4)
        assert lm_dr_closed_form(3, 3) == mono(A1=1, A2=1, A3=1)
        assert lm_dr_closed_form(3, 2) == mono(A1=2, C2=2)

    def test_lm_dr_r1_rejected(self):
        with pytest.raises(ValueError):
            lm_dr_closed_form(4, 1)

    def test_lm_dr_is_the_product_of_bracket_lms(self):
        # the closed form equals the I = [r] term's leading monomial, the
        # product of its brackets' expanded leading monomials
        for n in range(3, 13):
            columns = _model_tables(n)[0]
            for r in dr_rows(n):
                want = bracket_lm_rows(n, term_factors(n, range(1, r + 1)))
                assert lm_dr_closed_form(n, r) == _monomial(columns, want)

    @pytest.mark.parametrize("n", list(range(3, 17)) + [24])
    def test_lm_dr_matches_the_hand_formula(self, n):
        for r in dr_rows(n):
            assert lm_dr_closed_form(n, r) == hand_lm_dr(n, r), r

    def test_closed_form_degree_rows(self):
        for n in (3, 7, 24):
            columns = _model_tables(n)[0]
            P = degree_matrix_P(n, "closed_form")
            assert P.rows == tuple((r, lm_dr_closed_form(n, r).row(columns))
                                   for r in dr_rows(n))


class TestDominance:
    def test_3_2(self):
        rep = dominance_check(3, 2)
        assert rep["dominant"]
        assert rep["ranking"][0]["I"] == [1, 2]

    def test_4_2(self):
        rep = dominance_check(4, 2)
        assert rep["dominant"]
        assert len(rep["ranking"]) == 6

    def test_r0_trivial(self):
        rep = dominance_check(4, 0)
        assert rep["dominant"] and len(rep["ranking"]) == 1

    def test_all_small(self):
        for n in (3, 4, 5, 6):
            for r in dr_rows(n):
                assert dominance_check(n, r)["dominant"]

    # sha256 of the sorted-key JSON of [dominance_check(n, r) for r in
    # dr_rows(n)], recorded when every term re-expanded its brackets
    DIGESTS = {
        3: "b1b08461764e37148051028509b11df3f7caae4a5b5415d1cd397789784aaac9",
        4: "ede0a1b388c502babc081b0456e60764518585dbc4b3b0a95fb38d09eb3e46a4",
        5: "fe792ec3b8433325980b800b9150146723e0213633ad2729ad96710d7fac731c",
        6: "12f0d2f6fc38056155fd4fda393afde76530c926fbae4140771a0d166d081a5d",
        7: "aafa4a08f6506a3e236097fb1f5e4f1244599e3378fb8cd1321f880d1532ab42",
        8: "06f47fce375c1e42d502d1de3d3526e89bd0c52f4fe82a064840692b960ea634",
    }

    @pytest.mark.parametrize("n", range(3, 9))
    def test_recorded_reports(self, n):
        reports = [dominance_check(n, r) for r in dr_rows(n)]
        digest = hashlib.sha256(
            json.dumps(reports, sort_keys=True).encode()).hexdigest()
        assert digest == self.DIGESTS[n]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_symbol_rows_sum_their_bracket_lms(self, n):
        # alpha_j sums the lms of the [a_i, a_j] factors term_factors lists
        # for j outside I, beta_i those of the [b_k, a_i] factors for i in I
        alphas, betas = _symbol_rows(n)
        everything = range(1, n + 1)
        for j in everything:
            factors = [f for f in term_factors(n, []) if f[1] == alpha(j)]
            assert len(factors) == n - 1
            assert alphas[j - 1] == bracket_lm_rows(n, factors)
        for i in everything:
            factors = [f for f in term_factors(n, [i]) if f[0][0] == "b"]
            assert len(factors) == n - 2
            assert betas[i - 1] == bracket_lm_rows(n, factors)
        # a term's row is its factors' lm rows summed
        rng = random.Random(n)
        for _ in range(5):
            I = sorted(rng.sample(everything, rng.randint(0, n)))
            assert _term_lm_row(n, I) == bracket_lm_rows(n, term_factors(n, I))

    @pytest.mark.parametrize("r", [-1, 4, 9])
    def test_r_out_of_range_rejected(self, r):
        with pytest.raises(ValueError):
            dominance_check(3, r)


class TestDegreeMatrix:
    def test_n3_rows(self):
        P = degree_matrix_P(3, "direct")
        rows = {r: list(d) for r, d in P.rows}
        assert rows[0] == [2, -2, 0, 2, 4, 0]
        assert rows[2] == [2, 0, 0, 0, 2, 0]
        assert rows[3] == [1, 1, 1, 0, 0, 0]

    def test_methods_agree(self):
        # acceptance test_06 compares the direct expansion with the closed
        # form at n = 4, 5
        assert degree_matrix_P(3, "closed_form").rows == \
            degree_matrix_P(3, "direct").rows

    def test_direct_needs_small_n(self):
        with pytest.raises(ValueError):
            degree_matrix_P(DIRECT_N_MAX + 1, "direct")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            degree_matrix_P(3, "guess")

    def test_json(self):
        data = degree_matrix_P(3, "closed_form").to_json()
        assert data["n"] == 3
        assert data["columns"][0] == "A1"
        assert len(data["rows"]) == 3
