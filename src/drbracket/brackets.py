"""Bracket symbols, canonical bracket polynomials, the Pluecker relation,
and the bracket-sum expression of the discriminant-resultants.

Symbols are ("a", i) for the alpha family and ("b", k) for the beta
family; tuple comparison realizes the total order a_1 < ... < a_n <
b_1 < ... < b_{n-2}.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from .binforms import BinaryForm, _expand, dr_series
from .multipoly import MultiPoly, align_all
from .rationals import format_rational

Symbol = Tuple[str, int]
Assignment = Mapping[Symbol, Tuple[int, int]]

ASSIGNMENT_BOUND = 10
ASSIGNMENT_BUDGET = 10000


class BracketSumUndefinedError(ValueError):
    """The (n, r) = (2, 2) entry has no bracket-sum expression."""


class AssignmentBudgetError(RuntimeError):
    """random_generic_assignment found no generic assignment within
    ASSIGNMENT_BUDGET candidates."""


def alpha(i: int) -> Symbol:
    return ("a", i)


def beta(k: int) -> Symbol:
    return ("b", k)


def symbol_name(s: Symbol) -> str:
    return f"{s[0]}{s[1]}"


def coordinate_vars(s: Symbol) -> Tuple[str, str]:
    """Names of the two coordinate variables of a symbol."""
    return (f"{s[0]}{s[1]}_0", f"{s[0]}{s[1]}_1")


def coordinate_point(symbols: Sequence[Symbol]) -> Dict[Symbol, tuple]:
    """Each symbol's two coordinate variables, lifted onto one namespace:
    the point where a bracket polynomial's value is its expansion."""
    coords = align_all([MultiPoly.variable(x)
                        for s in symbols for x in coordinate_vars(s)])
    return dict(zip(symbols, zip(coords[0::2], coords[1::2])))


def bracket_eval(s: Symbol, t: Symbol, assignment: Assignment):
    """[s, t] = u_s*v_t - u_t*v_s."""
    us, vs = assignment[s]
    ut, vt = assignment[t]
    return us * vt - ut * vs


@dataclass(frozen=True)
class BracketMonomial:
    """Canonical product of brackets: ordered factors plus a sign.

    Each factor (s, t) satisfies s < t; a swap during canonicalization
    flips the sign; a repeated symbol collapses to the zero monomial
    (sign 0, no factors).
    """

    factors: Tuple[Tuple[Symbol, Symbol], ...]
    sign: int


def canonicalize(factors: Iterable[Tuple[Symbol, Symbol]]) -> BracketMonomial:
    sign = 1
    out = []
    for s, t in factors:
        if s == t:
            return BracketMonomial((), 0)
        if s > t:
            s, t = t, s
            sign = -sign
        out.append((s, t))
    return BracketMonomial(tuple(sorted(out)), sign)


class BracketPolynomial:
    """Integer (or rational) combination of canonical bracket monomials."""

    __slots__ = ("n", "_r", "_terms")

    def __init__(self, n: int, terms: Dict[tuple, object] = None):
        self.n = n
        self._r = None
        self._terms = dict(terms or {})

    @property
    def terms(self) -> Dict[tuple, object]:
        """The {factors: coeff} dict.  A read-only sum from dr_bracket_sum
        builds a new one on each read and keeps none."""
        if self._r is not None:
            return _bracket_sum_terms(self.n, self._r)
        return self._terms

    def add_term(self, factors: Iterable[Tuple[Symbol, Symbol]], coeff=1) -> None:
        if self._r is not None:
            raise TypeError("a sum from dr_bracket_sum is read-only; change "
                            "a copy, BracketPolynomial(n, p.terms)")
        mono = canonicalize(factors)
        if mono.sign == 0:
            return
        terms = self._terms
        c = coeff * mono.sign
        s = terms.get(mono.factors, 0) + c
        if s:
            terms[mono.factors] = s
        else:
            terms.pop(mono.factors, None)

    def __eq__(self, other):
        return isinstance(other, BracketPolynomial) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def degree(self) -> int:
        """The number of factors of its longest term (each term of
        dr_bracket_sum(n, r) has (n - r)(n - 1) + r(n - 2)), 0 for none."""
        if self._r is not None:
            n, r = self.n, self._r
            return (n - r) * (n - 1) + r * (n - 2)
        return max(map(len, self._terms), default=0)

    def substitute(self, image: Callable[[Tuple[Symbol, Symbol]], object],
                   zero=0, one=1):
        """Sum over the terms of coeff * prod(image(pair) for each factor),
        computed in the ring of ``zero`` and ``one``; ``image`` is called
        once per distinct pair.

        A sum from dr_bracket_sum takes the images of the brackets of its
        _product_table to _table_product.  Any other polynomial is
        evaluated one factor at a time.
        """
        if self._r is not None:
            n, r = self.n, self._r
            pairs = _product_table(n)[0]
            return _table_product(n, r, {
                k: image(pairs[k]) for k, _, _ in _sum_brackets(n, r)},
                zero, one)
        values: dict = {}
        total = zero
        for factors, coeff in self._terms.items():
            prod = coeff * one
            for pair in factors:
                value = values.get(pair)
                if value is None:
                    value = values[pair] = image(pair)
                prod = prod * value
            total = total + prod
        return total

    def evaluate(self, assignment: Assignment):
        """Exact value; integer coefficients and coordinates give an int.

        A sum from dr_bracket_sum reads the coordinates of each symbol it
        needs once, computes each bracket of its _product_table once and
        takes them to _table_product: [a_i, a_j] when r < n and [a_i, b_k]
        when r > 0, never a [b_k, b_l].
        """
        if self._r is None:
            return self.substitute(
                lambda pair: bracket_eval(pair[0], pair[1], assignment))
        n, r = self.n, self._r
        us, vs = zip(*[assignment[s]
                       for s in all_symbols(n)[:None if r else n]])
        return _table_product(n, r, {
            k: us[i] * vs[j] - us[j] * vs[i]
            for k, i, j in _sum_brackets(n, r)}, 0, 1)

    def expand_to_coordinates(self) -> MultiPoly:
        """Expansion as a polynomial in the coordinate variables of the
        symbols in it: the value at their coordinate_point, as a MultiPoly
        even when it is a constant."""
        if self._r is not None:
            symbols = ([alpha(i) for i in range(1, self.n + 1)]
                       if self._r == 0 else all_symbols(self.n))
        else:
            symbols = sorted({s for factors in self._terms
                              for pair in factors for s in pair})
        return MultiPoly.zero() + self.evaluate(coordinate_point(symbols))

    def to_json(self) -> list:
        recs = []
        for factors, coeff in sorted(self.terms.items()):
            recs.append({
                "sign": 1 if coeff > 0 else -1,
                "factors": [[symbol_name(s), symbol_name(t)] for s, t in factors],
                "coefficient": format_rational(abs(coeff)),
            })
        return recs


def plucker_relation(a: Symbol, b: Symbol, c: Symbol, d: Symbol) -> BracketPolynomial:
    """[a,b][c,d] + [a,c][d,b] + [a,d][b,c]; vanishes identically."""
    if len({a, b, c, d}) != 4:
        raise ValueError("Pluecker relation needs four distinct symbols")
    n = max(i for _, i in (a, b, c, d))
    p = BracketPolynomial(n)
    p.add_term([(a, b), (c, d)])
    p.add_term([(a, c), (d, b)])
    p.add_term([(a, d), (b, c)])
    return p


def subsets_colex(n: int, r: int):
    """Size-r subsets of [n] in co-lexicographic order."""
    return sorted(itertools.combinations(range(1, n + 1), r),
                  key=lambda I: tuple(reversed(I)))


@functools.lru_cache(maxsize=64)
def _product_table(n: int):
    """Theorem 1's product form prod_{j=1}^{n} (X_j + t Y_j) at n, built
    once per n, as (pairs, xs, ys, brackets).

    ``pairs`` are the canonical pairs of all_symbols(n) in
    itertools.combinations order, which is their sorted order.  xs[j - 1]
    is X_j = prod_{i != j} [a_i, a_j] and ys[j - 1] is Y_j =
    prod_k [b_k, a_j], k in [n - 2], each as (sign, numbers of its
    canonical factors in pairs): putting [a_i, a_j] in canonical order
    swaps it for the n - j indices i > j, and [b_k, a_j] always.
    ``brackets`` holds each [a_i, a_j] and then each [a_i, b_k] as
    (number, i, j), with i and j the places of its symbols in
    all_symbols(n).
    """
    symbols = all_symbols(n)
    pairs, brackets = [], ([], [])
    for (i, s), (j, t) in itertools.combinations(enumerate(symbols), 2):
        if s[0] == "a":
            brackets[t[0] == "b"].append((len(pairs), i, j))
        pairs.append((s, t))
    number = {pair: k for k, pair in enumerate(pairs)}
    xs = tuple(((-1) ** (n - j), tuple(
        number[alpha(min(i, j)), alpha(max(i, j))]
        for i in range(1, n + 1) if i != j)) for j in range(1, n + 1))
    ys = tuple(((-1) ** (n - 2), tuple(
        number[alpha(j), beta(k)] for k in range(1, n - 1)))
        for j in range(1, n + 1))
    return tuple(pairs), xs, ys, tuple(map(tuple, brackets))


def _sum_brackets(n: int, r: int) -> tuple:
    """The (number, i, j) of _product_table(n) of each bracket
    dr_bracket_sum(n, r) needs: [a_i, a_j] when r < n, [a_i, b_k] when
    r > 0."""
    alpha_alpha, alpha_beta = _product_table(n)[3]
    return (alpha_alpha if r < n else ()) + (alpha_beta if r else ())


def _table_product(n: int, r: int, values: Mapping, zero, one):
    """dr_bracket_sum(n, r) from values[k], the value of the bracket
    pairs[k] of _product_table(n): each X_j and Y_j is multiplied once,
    from its sign times ``one``, and they go to _product_form."""
    _, xs, ys, _ = _product_table(n)

    def factors(table):
        return [math.prod(map(values.__getitem__, numbers), start=sign * one)
                for sign, numbers in table]
    return _product_form(n, r, factors(xs) if r < n else (),
                         factors(ys) if r else (), zero, one)


def _product_form(n: int, r: int, xs: Sequence, ys: Sequence, zero, one):
    """The t^r coefficient of prod_{j=1}^{n} (X_j + t Y_j), with X_j =
    xs[j - 1] and Y_j = ys[j - 1]: xs is read only when r < n and ys only
    when r > 0.  After factor j only the coefficients of t^k with
    max(0, r - n + j) <= k <= min(j, r), the ones the t^r coefficient still
    depends on, are kept."""
    coeffs = [one] + [zero] * r
    for j in range(1, n + 1):
        for k in range(min(j, r), max(0, r - n + j) - 1, -1):
            if k == j:
                coeffs[k] = coeffs[k - 1] * ys[j - 1]
            elif k == 0:
                coeffs[k] = coeffs[k] * xs[j - 1]
            else:
                coeffs[k] = coeffs[k] * xs[j - 1] + coeffs[k - 1] * ys[j - 1]
    return coeffs[r]


def _bracket_sum_terms(n: int, r: int) -> Dict[tuple, int]:
    """The terms of dr_bracket_sum(n, r): the products X_J Y_I of
    _product_table(n), X_J the X_j over the complement J of I and Y_I the
    Y_i over I, for the size-r subsets I of [n] in subsets_colex order,
    with equal monomials merged.  Sorting a term's pair numbers sorts its
    canonical factors, and its sign is the product of its X_j's and Y_i's.
    """
    pairs, xs, ys, _ = _product_table(n)
    terms: Dict[tuple, int] = {}
    for I in subsets_colex(n, r):
        chosen = [ys[j - 1] if j in I else xs[j - 1] for j in range(1, n + 1)]
        key = tuple(map(pairs.__getitem__, sorted(itertools.chain(
            *(numbers for _, numbers in chosen)))))
        s = terms.get(key, 0) + math.prod(sign for sign, _ in chosen)
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return terms


def dr_bracket_sum(n: int, r: int) -> BracketPolynomial:
    """Bracket-sum expression of the r-th discriminant-resultant (Theorem
    1), as a new read-only BracketPolynomial on each call: it holds only
    (n, r), is always evaluated in the product form of _product_table and
    builds its terms anew on each read (``terms``, ``len``, ``==``,
    ``to_json``)."""
    if not (2 <= n and 0 <= r <= n):
        raise ValueError("need n >= 2 and 0 <= r <= n")
    if (n, r) == (2, 2):
        raise BracketSumUndefinedError(
            "the (n, r) = (2, 2) entry equals f_0^2, not a bracket sum")
    p = BracketPolynomial(n)
    p._r, p._terms = r, None
    return p


def forms_from_assignment(assignment: Assignment, n: int):
    """(f_n, f_{n-2}) obtained by expanding the symbol products; the
    coordinates may be ints, Fractions or MultiPoly."""
    f_n = _expand([assignment[alpha(i)] for i in range(1, n + 1)])
    f_m = _expand([assignment[beta(k)] for k in range(1, n - 1)])
    return BinaryForm.from_coeffs(f_n), BinaryForm.from_coeffs(f_m)


def derive_seed(master: int, index) -> int:
    """Stable per-trial seed (independent of interpreter hash salting)."""
    h = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def all_symbols(n: int) -> List[Symbol]:
    return [alpha(i) for i in range(1, n + 1)] + [beta(k) for k in range(1, n - 1)]


def _all_brackets_nonzero(vectors: Sequence[Tuple[int, int]]) -> bool:
    """Whether u_s*v_t - u_t*v_s != 0 for every two of the integer vectors,
    in one pass: with two or more, exactly when none is (0, 0) and no two
    have the same direction, each (u, v) divided by its gcd, with the sign
    that makes the first nonzero coordinate positive."""
    if len(vectors) < 2:
        return True
    directions = set()
    for u, v in vectors:
        g = math.gcd(u, v)
        if not g:
            return False
        if u < 0 or (not u and v < 0):
            g = -g
        d = (u // g, v // g)
        if d in directions:
            return False
        directions.add(d)
    return True


def random_generic_assignment(n: int, seed: int) -> Dict[Symbol, tuple]:
    """Integer-coordinate assignment with all pairwise brackets nonzero and
    all alpha coordinates nonzero (so a_0*a_n != 0).  Deterministic per seed.

    Coordinates are drawn from [-ASSIGNMENT_BOUND, ASSIGNMENT_BOUND]; after
    ASSIGNMENT_BUDGET rejected candidates AssignmentBudgetError is raised.
    A candidate gives its symbols (u, v) in all_symbols order, and each
    coordinate is drawn as CPython's Random.randint(-B, B) draws it:
    getrandbits(k), k = (2B + 1).bit_length(), drawn again while >= 2B + 1,
    minus B.  So the stream is that of one randint per coordinate.
    """
    rng = Random(derive_seed(seed, "assignment"))
    symbols = all_symbols(n)
    bound = ASSIGNMENT_BOUND
    width = 2 * bound + 1
    draws = map(rng.getrandbits, itertools.repeat(width.bit_length()))
    accepted = filter(width.__gt__, draws)
    size, alpha_size = 2 * len(symbols), 2 * n
    for _ in range(ASSIGNMENT_BUDGET):
        c = [x - bound for x in itertools.islice(accepted, size)]
        if 0 in c[:alpha_size]:
            continue
        vectors = list(zip(c[0::2], c[1::2]))
        if _all_brackets_nonzero(vectors):
            return dict(zip(symbols, vectors))
    raise AssignmentBudgetError(
        f"no generic assignment at n={n} among {ASSIGNMENT_BUDGET} candidates "
        f"with coordinates in [-{bound}, {bound}]; try another seed or a "
        f"smaller n")


def generic_points(n: int, trials: int, seed: int) -> List[Dict[Symbol, tuple]]:
    """Trial t's point is random_generic_assignment(n, derive_seed(seed, t)).
    All are drawn before the caller's work, so an exhausted sampler stops
    a run first."""
    return [random_generic_assignment(n, derive_seed(seed, trial))
            for trial in range(trials)]


def check_mode_and_trials(mode: str, trials: int) -> None:
    """Reject a mode other than numeric or symbolic and a negative number
    of trials, so that no report echoes a run that did not happen."""
    if mode not in ("numeric", "symbolic"):
        raise ValueError(f"unknown mode {mode!r}: use 'numeric' or 'symbolic'")
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")


def verify_theorem1(n: int, trials: int = 100, seed: int = 0,
                    mode: str = "numeric") -> dict:
    """Check the bracket-sum expression against the resultant-based series.

    Both are compared at each point: the random generic assignments of
    generic_points in numeric mode, the one coordinate_point of the 4n-4
    coordinate variables (full expansions) in symbolic mode.  Failures are
    reported (with witnesses), never raised; an unknown mode or a negative
    number of trials raises ValueError, and an exhausted sampling budget
    raises AssignmentBudgetError before any sum is built.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    check_mode_and_trials(mode, trials)
    # draw before any sum is evaluated, so an exhausted sampler stops first
    points = ([coordinate_point(all_symbols(n))] if mode == "symbolic"
              else generic_points(n, trials, seed))
    report = {"n": n, "mode": mode, "trials": len(points), "seed": seed,
              "failures": []}
    sums = {r: dr_bracket_sum(n, r)
            for r in range(n + 1) if (n, r) != (2, 2)}
    for trial, point in enumerate(points):
        f_n, f_m = forms_from_assignment(point, n)
        series = dr_series(f_n, f_m, mode=mode)
        for r, value in enumerate(series.entries):
            expected = (f_m.coefficients[0] ** 2 if (n, r) == (2, 2)
                        else sums[r].evaluate(point))
            if value != expected:
                report["failures"].append(
                    {"r": r, "witness": "symbolic expansion"}
                    if mode == "symbolic" else
                    {"trial": trial, "r": r,
                     "assignment": assignment_to_json(point),
                     "series": format_rational(value),
                     "bracket_sum": format_rational(expected)})
    return report


def assignment_to_json(assignment: Assignment) -> dict:
    return {symbol_name(s): [format_rational(u), format_rational(v)]
            for s, (u, v) in sorted(assignment.items())}
