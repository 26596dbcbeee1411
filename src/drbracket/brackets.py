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

        A sum from dr_bracket_sum is always the t^r coefficient of
        prod_j (X_j + t Y_j), with X_j the (-1)^(n - j) signed product of the
        canonical pairs of prod_{i != j} [a_i, a_j] and Y_j the (-1)^(n - 2)
        signed product of those of prod_k [b_k, a_j] (see _bracket_sum_terms):
        each chunk of _pair_tables is multiplied once and the chunks go to
        _product_form.  Any other polynomial is evaluated one factor at a
        time.
        """
        values: dict = {}
        if self._r is not None:
            n, r = self.n, self._r
            pairs, alpha_pairs, beta_pairs = _pair_tables(n)

            def chunk(numbers, sign):
                for k in numbers:
                    if k not in values:
                        values[k] = image(pairs[k])
                return math.prod(map(values.__getitem__, numbers),
                                 start=sign * one)
            xs, ys = [], []
            for j in range(1, n + 1):
                if r < n:
                    xs.append(chunk(alpha_pairs[j - 1], (-1) ** (n - j)))
                if r:
                    ys.append(chunk(beta_pairs[j - 1], (-1) ** (n - 2)))
            return _product_form(n, r, xs, ys, zero, one)
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
        needs once and computes each bracket it needs once, with the
        chunks, factor order and signs of substitute: [a_i, a_j] for the
        X_j when r < n and [a_i, b_k] for the Y_i when r > 0, never a
        [b_k, b_l].
        """
        if self._r is None:
            return self.substitute(
                lambda pair: bracket_eval(pair[0], pair[1], assignment))
        n, r = self.n, self._r
        a = [assignment[alpha(i)] for i in range(1, n + 1)]
        xs = ys = ()
        if r < n:
            # upper[i][j - i - 1] is [a_(i+1), a_(j+1)] for i < j
            upper = [[ui * vj - uj * vi for uj, vj in a[i + 1:]]
                     for i, (ui, vi) in enumerate(a)]
            xs = [math.prod(itertools.chain(
                      [upper[i][j - i - 1] for i in range(j)], upper[j]),
                      start=(-1) ** (n - 1 - j))
                  for j in range(n)]
        if r:
            b = [assignment[beta(k)] for k in range(1, n - 1)]
            sign = (-1) ** (n - 2)
            ys = [math.prod([ui * vk - uk * vi for uk, vk in b], start=sign)
                  for ui, vi in a]
        return _product_form(n, r, xs, ys, 0, 1)

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


def term_factors(n: int, I: Sequence[int]) -> List[Tuple[Symbol, Symbol]]:
    """Bracket factors of the bracket-sum term of the subset I of [n]:
    prod_{j in J, i != j} [a_i, a_j] * prod_{i in I, k in [n-2]} [b_k, a_i],
    where J is the complement of I."""
    J = sorted(set(range(1, n + 1)) - set(I))
    factors = []
    for j in J:
        for i in range(1, n + 1):
            if i != j:
                factors.append((alpha(i), alpha(j)))
    for i in I:
        for k in range(1, n - 1):
            factors.append((beta(k), alpha(i)))
    return factors


@functools.lru_cache(maxsize=64)
def _pair_tables(n: int):
    """The canonical pairs of all_symbols(n) in itertools.combinations
    order, which is their sorted order, and two tables of their numbers
    in it: alpha_pairs[j - 1] holds the factors of prod_{i != j} [a_i, a_j]
    and beta_pairs[i - 1] the factors [a_i, b_k], k in [n - 2]."""
    pairs = tuple(itertools.combinations(all_symbols(n), 2))
    number = {pair: k for k, pair in enumerate(pairs)}
    alpha_pairs = tuple(
        tuple(number[alpha(min(i, j)), alpha(max(i, j))]
              for i in range(1, n + 1) if i != j)
        for j in range(1, n + 1))
    beta_pairs = tuple(
        tuple(number[alpha(i), beta(k)] for k in range(1, n - 1))
        for i in range(1, n + 1))
    return pairs, alpha_pairs, beta_pairs


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
    """The terms of dr_bracket_sum(n, r): the sum of the term_factors
    products over the size-r subsets I of [n], in subsets_colex order,
    with equal monomials merged.

    Each term's key comes out already canonical, without canonicalize:
    sorting its factors' numbers from _pair_tables sorts its factors.
    Canonicalizing term_factors(n, I) would swap [a_i, a_j] for the n - j
    indices i > j of each j in the complement J of I, and all r(n - 2)
    factors [b_k, a_i], so the term's sign is
    (-1)^(sum_{j in J} (n - j) + r(n - 2)).
    """
    pairs, alpha_pairs, beta_pairs = _pair_tables(n)
    terms: Dict[tuple, int] = {}
    for I in subsets_colex(n, r):
        J = [j for j in range(1, n + 1) if j not in I]
        key = tuple(map(pairs.__getitem__, sorted(itertools.chain(
            *(alpha_pairs[j - 1] for j in J), *(beta_pairs[i - 1] for i in I)))))
        parity = sum(n - j for j in J) + r * (n - 2)
        s = terms.get(key, 0) + (-1 if parity % 2 else 1)
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return terms


def dr_bracket_sum(n: int, r: int) -> BracketPolynomial:
    """Bracket-sum expression of the r-th discriminant-resultant (Theorem
    1), as a new read-only BracketPolynomial on each call: it holds only
    (n, r), is always evaluated in product form (see substitute) and builds
    its terms anew on each read (``terms``, ``len``, ``==``, ``to_json``)."""
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
