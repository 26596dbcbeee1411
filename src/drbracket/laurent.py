"""Triangulated-polygon Laurent model: bracket expansion, lexicographic
leading monomials, the leading monomial of each DR_{n,r} and the degree
matrix.

Vertices a_1..a_n, b_1..b_{n-2} sit counter-clockwise on a (2n-2)-gon;
the fan triangulation draws every diagonal through gamma = b_{n-2}.
Edge/diagonal brackets become the Laurent variables
    A_i = [gamma, a_i], B_k = [gamma, b_k],
    C_i = [a_i, a_{i+1}] (C_n = [a_n, b_1]), D_k = [b_k, b_{k+1}],
and every bracket is a Laurent polynomial with denominators only in the
invertible diagonals A_2..A_n, B_1..B_{n-4}.

Leading monomials are multiplicative under lex, so the lm of the
bracket-sum term of I is sum_{j not in I} alpha_j + sum_{i in I} beta_i
over one per-n table of 2n symbol rows, each the summed lm rows of one
symbol's bracket expansions.  The lm of DR_{n,r} is that of its dominant
term I = [r]; the full expansion of the bracket sum stays the oracle for
small n.  It multiplies out in exponent rows, with the sum and product
loops that MultiPoly's terms use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Dict, List, Mapping, Sequence, Tuple

from .brackets import (BracketPolynomial, Symbol, _pair_tables, alpha, beta,
                       dr_bracket_sum, subsets_colex)
from .multipoly import _product, _sum
from .rationals import format_rational

# ("A", i), ("B", k), ("C", i), ("D", k); the family letters sort in lex
# priority, so plain tuple order is the canonical variable order
Var = Tuple[str, int]

# Largest n at which degree_matrix_P expands the bracket sums directly.
# Callers use the direct method only at n = 3, as the oracle for the closed
# forms; the cap stops a run that would not finish in useful time: the
# expansion takes 0.55 s at n = 5 but about four minutes and 1.3 GiB at
# n = 6 (one run each on a 2-vCPU Xeon with CPython 3.11.7).
DIRECT_N_MAX = 5


def var_name(v: Var) -> str:
    return f"{v[0]}{v[1]}"


@dataclass(frozen=True)
class LaurentMonomial:
    """Integer-exponent monomial, canonically sorted, zero exponents dropped."""

    exponents: Tuple[Tuple[Var, int], ...]

    @classmethod
    def from_dict(cls, exps: Mapping[Var, int]) -> "LaurentMonomial":
        return cls(tuple(sorted((v, e) for v, e in exps.items() if e)))

    def row(self, columns: Sequence[Var]) -> tuple:
        """Exponent of each variable of ``columns``, in that order."""
        exps = dict(self.exponents)
        return tuple(exps.get(v, 0) for v in columns)

    def __str__(self):
        if not self.exponents:
            return "1"
        return "*".join(f"{var_name(v)}^{e}" if e != 1 else var_name(v)
                        for v, e in self.exponents)

    __repr__ = __str__


class LaurentPoly:
    """Mapping from monomials to nonzero coefficients.

    Coefficients are plain ints (a Fraction a caller passes in is kept as
    it is).  ``evaluate`` clears every denominator at once: it multiplies
    each term by one common denominator, sums integers and divides once.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[LaurentMonomial, int] = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def evaluate(self, values: Mapping[Var, int]):
        """Value at the given variable values.

        With k_v the largest power to which a term inverts v, the common
        denominator is D = prod v**k_v.  A term times D is c times its
        positive powers times D // (its inverted powers), exact since D
        holds them; the terms are summed and divided by D once.  Returns an
        int when D divides the sum and a reduced Fraction otherwise; raises
        ZeroDivisionError when D is 0.
        """
        shift: Dict[Var, int] = {}
        for m in self.terms:
            for v, e in m.exponents:
                if e < 0 and -e > shift.get(v, 0):
                    shift[v] = -e
        den = 1
        for v, k in shift.items():
            den *= values[v] ** k
        if not den:
            raise ZeroDivisionError("an inverted variable takes the value 0")
        total = 0
        for m, c in self.terms.items():
            inv = 1
            for v, e in m.exponents:
                if e > 0:
                    c *= values[v] ** e
                else:
                    inv *= values[v] ** -e
            total += c * (den // inv)
        q, rem = divmod(total, den)
        return Fraction(total, den) if rem else q

    def __str__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"{format_rational(c)}*{m}"
                          for m, c in sorted(self.terms.items(),
                                             key=lambda it: tuple(it[0].exponents)))

    __repr__ = __str__


def _monomial(columns: Sequence[Var], row: tuple) -> LaurentMonomial:
    """The LaurentMonomial of an exponent row over sorted ``columns``."""
    return LaurentMonomial(tuple(compress(zip(columns, row), row)))


def _from_rows(columns: Sequence[Var], rows: dict) -> LaurentPoly:
    """The LaurentPoly of {exponent row: coeff} over sorted ``columns``."""
    return LaurentPoly({_monomial(columns, row): c for row, c in rows.items()})


class _Rows:
    """A Laurent polynomial as {exponent row: coeff} over one model's
    columns, with no zero coefficient: the Laurent layer's one ring, which
    laurent_expand_poly multiplies in.  It adds and multiplies with
    MultiPoly's term-dict loops, which take negative exponents as they
    take any other."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __add__(self, other: "_Rows") -> "_Rows":
        return _Rows(_sum(self.terms, other.terms.items()))

    def __mul__(self, other):
        if other.__class__ is _Rows:
            return _Rows(_product(self.terms, other.terms))
        return _Rows({e: other * c for e, c in self.terms.items()})

    __rmul__ = __mul__


@dataclass(frozen=True)
class PolygonModel:
    """Labeled (2n-2)-gon with the fan triangulation through b_{n-2}."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("polygon model needs n >= 3")

    @property
    def gamma(self) -> Symbol:
        return beta(self.n - 2)

    @property
    def vertices(self) -> List[Symbol]:
        return ([alpha(i) for i in range(1, self.n + 1)]
                + [beta(k) for k in range(1, self.n - 1)])

    @property
    def boundary(self) -> List[Symbol]:
        """Boundary walk from a_1 to b_{n-3}, avoiding gamma."""
        return [v for v in self.vertices if v != self.gamma]

    def all_vars(self) -> List[Var]:
        """Variables of the Laurent ring in lex priority order."""
        n = self.n
        return ([("A", i) for i in range(1, n + 1)]
                + [("B", k) for k in range(1, n - 2)]
                + [("C", i) for i in range(1, n + 1)]
                + [("D", k) for k in range(1, n - 3)])

    def invertible_vars(self) -> List[Var]:
        n = self.n
        return ([("A", i) for i in range(2, n + 1)]
                + [("B", k) for k in range(1, n - 3)])

    def diagonal_var(self, v: Symbol) -> Var:
        """Variable of the bracket [gamma, v]."""
        if v == self.gamma:
            raise ValueError("no diagonal from gamma to itself")
        if v[0] == "a":
            return ("A", v[1])
        return ("B", v[1])

    def edge_var(self, u: Symbol, v: Symbol) -> Tuple[Var, int]:
        """Variable and sign of the bracket [u, v] of a boundary edge."""
        n = self.n
        bnd = self.boundary
        iu, iv = bnd.index(u), bnd.index(v)
        if abs(iu - iv) != 1:
            raise ValueError("not a boundary edge avoiding gamma")
        sign = 1
        if iu > iv:
            u, v, iu, iv = v, u, iv, iu
            sign = -1
        if u[0] == "a" and v[0] == "a":
            return ("C", u[1]), sign
        if u[0] == "a":  # (a_n, b_1)
            return ("C", n), sign
        return ("D", u[1]), sign

    def defining_brackets(self) -> Dict[Var, Tuple[Symbol, Symbol]]:
        """Which bracket each Laurent variable stands for."""
        n = self.n
        out: Dict[Var, Tuple[Symbol, Symbol]] = {}
        for i in range(1, n + 1):
            out[("A", i)] = (self.gamma, alpha(i))
        for k in range(1, n - 2):
            out[("B", k)] = (self.gamma, beta(k))
        for i in range(1, n):
            out[("C", i)] = (alpha(i), alpha(i + 1))
        out[("C", n)] = (alpha(n), beta(1))
        for k in range(1, n - 3):
            out[("D", k)] = (beta(k), beta(k + 1))
        return out


def boundary_path(model: PolygonModel, x: Symbol, y: Symbol) -> List[Symbol]:
    """Boundary walk from x to y on the side of the polygon avoiding gamma."""
    if x == model.gamma or y == model.gamma:
        raise ValueError("path endpoints must differ from gamma")
    if x == y:
        raise ValueError("path endpoints must be distinct")
    bnd = model.boundary
    ix, iy = bnd.index(x), bnd.index(y)
    if ix < iy:
        return bnd[ix:iy + 1]
    return list(reversed(bnd[iy:ix + 1]))


@functools.lru_cache(maxsize=64)
def _model_tables(n: int):
    """Lookup tables of PolygonModel(n), built once per n.

    ``columns`` is model.all_vars(): the lex priority order, which is also
    LaurentMonomial's sorted variable order, so an exponent row over it
    compares in lex and turns into a canonical monomial without sorting.
    ``position`` maps each boundary vertex to its place on the
    gamma-avoiding walk, ``diagonal[j]`` is the column of the diagonal
    variable of the j-th boundary vertex, and ``edge[j]`` the column of
    the edge variable of the boundary step from vertex j to vertex j + 1.
    """
    model = PolygonModel(n)
    columns = tuple(model.all_vars())
    column = {v: j for j, v in enumerate(columns)}
    bnd = model.boundary
    position = {v: j for j, v in enumerate(bnd)}
    diagonal = tuple(column[model.diagonal_var(v)] for v in bnd)
    edge = tuple(column[model.edge_var(u, v)[0]] for u, v in zip(bnd, bnd[1:]))
    return columns, position, diagonal, edge


def _bracket_rows(n: int, x: Symbol, y: Symbol) -> dict:
    """Laurent expansion of [x, y] as {exponent row: coeff} over the
    columns of PolygonModel(n).

    The walk from y to x is the walk from x to y reversed, with every edge
    bracket's sign flipped, so [x, y] is sign times the expansion along
    the boundary steps lo -> lo + 1 -> ... -> hi, where lo < hi are the
    positions of x and y on the walk. With g_j the diagonal variable
    [gamma, v_j] of the j-th boundary vertex, step j contributes its edge
    variable, times g_lo / g_j unless it is the first step and times
    g_hi / g_{j+1} unless it is the last. These diagonals are distinct, so
    every exponent is 0 or +-1 and each row is written in place.
    """
    columns, position, diagonal, edge = _model_tables(n)
    gamma = beta(n - 2)
    for v in (x, y):
        if v not in position and v != gamma:
            raise ValueError(f"{v} is not a vertex of the model")
    if x == y:
        return {}
    width = len(columns)
    if x == gamma or y == gamma:
        v, sign = (y, 1) if x == gamma else (x, -1)
        row = [0] * width
        row[diagonal[position[v]]] = 1
        return {tuple(row): sign}
    lo, hi, sign = position[x], position[y], 1
    if lo > hi:
        lo, hi, sign = hi, lo, -1
    d_lo, d_hi = diagonal[lo], diagonal[hi]
    out = {}
    for j in range(lo, hi):
        row = [0] * width
        if j > lo:
            row[d_lo] = 1
            row[diagonal[j]] = -1
        if j < hi - 1:
            row[d_hi] = 1
            row[diagonal[j + 1]] = -1
        row[edge[j]] = 1
        out[tuple(row)] = sign
    return out


def laurent_expand_bracket(model: PolygonModel, x: Symbol, y: Symbol) -> LaurentPoly:
    """Laurent expansion of [x, y] in the triangulation's variables.

    Brackets touching gamma are single variables; otherwise one term per
    edge of the gamma-avoiding boundary path, with the endpoint diagonal
    factors cancelled so only invertible variables are ever inverted.
    """
    return _from_rows(_model_tables(model.n)[0], _bracket_rows(model.n, x, y))


def laurent_expand_poly(model: PolygonModel, bp: BracketPolynomial) -> LaurentPoly:
    """Multiplicative-additive extension of the per-bracket expansion,
    multiplied out in exponent rows over the model's columns."""
    n = model.n
    columns = _model_tables(n)[0]
    total = bp.substitute(
        lambda pair: _Rows(_bracket_rows(n, pair[0], pair[1])),
        _Rows({}), _Rows({(0,) * len(columns): 1}))
    return _from_rows(columns, total.terms)


def lex_leading_monomial(p: LaurentPoly, model: PolygonModel) -> LaurentMonomial:
    """Exponent-vector maximum under lex with priority A > B > C > D."""
    if p.is_zero:
        raise ValueError("zero polynomial has no leading monomial")
    ordered = model.all_vars()
    return max(p.terms, key=lambda m: m.row(ordered))


@functools.lru_cache(maxsize=64)
def _symbol_rows(n: int):
    """The lm rows alpha_1..alpha_n and beta_1..beta_n of PolygonModel(n),
    built once per n: alpha_j sums the lm rows of the brackets [a_i, a_j],
    i != j, and beta_i those of [a_i, b_k], k in [n - 2], the factors that
    brackets._pair_tables lists for each symbol.  A bracket's lm row is the
    largest row of its expansion, the columns being in lex priority order,
    and it does not depend on the bracket's orientation."""
    pairs, alpha_pairs, beta_pairs = _pair_tables(n)

    def summed(numbers):
        return tuple(map(sum, zip(*(max(_bracket_rows(n, *pairs[k]))
                                    for k in numbers))))
    return tuple(map(summed, alpha_pairs)), tuple(map(summed, beta_pairs))


def _term_lm_row(n: int, I: Sequence[int]) -> tuple:
    """Exponent row of the lm of the bracket-sum term of I: since leading
    monomials are multiplicative under lex, the sum of alpha_j over the
    complement J of I and beta_i over I."""
    alphas, betas = _symbol_rows(n)
    chosen = set(I)
    return tuple(map(sum, zip(*(betas[i - 1] if i in chosen else alphas[i - 1]
                                for i in range(1, n + 1)))))


def lm_dr_closed_form(n: int, r: int) -> LaurentMonomial:
    """Leading monomial of the r-th discriminant-resultant: that of the
    I = [r] term of the bracket sum, summed from the 2n symbol rows."""
    if n < 3:
        raise ValueError("need n >= 3")
    if r == 1 or not (0 <= r <= n):
        raise ValueError("valid r is 0 or 2..n (the r = 1 entry vanishes)")
    return _monomial(_model_tables(n)[0], _term_lm_row(n, range(1, r + 1)))


def dominance_check(n: int, r: int) -> dict:
    """Enumerate all C(n, r) subsets and confirm the I = [r] term's
    leading monomial strictly lex-dominates every other term's."""
    if not (0 <= r <= n):
        raise ValueError("need 0 <= r <= n")
    columns = _model_tables(n)[0]
    ranking = sorted(((_term_lm_row(n, I), list(I))
                      for I in subsets_colex(n, r)),
                     key=itemgetter(0), reverse=True)
    lead_row, lead_I = ranking[0]
    dominant = lead_I == list(range(1, r + 1))
    strict = len(ranking) == 1 or lead_row > ranking[1][0]
    return {
        "n": n, "r": r,
        "dominant": dominant and strict,
        "ranking": [{"I": I, "lm": str(_monomial(columns, row))}
                    for row, I in ranking],
    }


def dr_rows(n: int) -> List[int]:
    return [0] + list(range(2, n + 1))


@dataclass(frozen=True)
class DegreeMatrix:
    """deg_X lm(DR_{n,r}) for r in {0, 2, ..., n} and X over the ring vars."""

    n: int
    columns: tuple
    rows: tuple  # (r, exponent tuple) pairs

    def matrix(self) -> List[List[int]]:
        return [list(degrees) for _, degrees in self.rows]

    def to_json(self) -> dict:
        return {"n": self.n,
                "columns": [var_name(v) for v in self.columns],
                "rows": [{"r": r, "degrees": list(d)} for r, d in self.rows]}


def degree_matrix_P(n: int, method: str = "closed_form") -> DegreeMatrix:
    """Degree matrix of the leading monomials of all DR_{n,r}.

    ``"closed_form"`` sums each row from the 2n symbol rows of the I = [r]
    term; ``"direct"`` expands every bracket sum in full and takes its lex
    maximum, the oracle for small n (n <= DIRECT_N_MAX).
    """
    model = PolygonModel(n)
    columns = tuple(model.all_vars())
    rows = []
    for r in dr_rows(n):
        if method == "closed_form":
            row = _term_lm_row(n, range(1, r + 1))
        elif method == "direct":
            if n > DIRECT_N_MAX:
                raise ValueError(f"direct expansion needs n <= {DIRECT_N_MAX}")
            p = laurent_expand_poly(model, dr_bracket_sum(n, r))
            row = lex_leading_monomial(p, model).row(columns)
        else:
            raise ValueError(f"unknown method: {method}")
        rows.append((r, row))
    return DegreeMatrix(n, columns, tuple(rows))
