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

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[tuple, object] = None):
        self.n = n
        self.terms = dict(terms or {})

    def add_term(self, factors: Iterable[Tuple[Symbol, Symbol]], coeff=1) -> None:
        mono = canonicalize(factors)
        if mono.sign == 0:
            return
        c = coeff * mono.sign
        s = self.terms.get(mono.factors, 0) + c
        if s:
            self.terms[mono.factors] = s
        else:
            self.terms.pop(mono.factors, None)

    def __eq__(self, other):
        return isinstance(other, BracketPolynomial) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def substitute(self, image: Callable[[Tuple[Symbol, Symbol]], object],
                   zero=0, one=1):
        """Sum over the terms of coeff * prod(image(pair) for each factor),
        computed in the ring of ``zero`` and ``one``; ``image`` is called
        once per distinct pair."""
        values: dict = {}
        total = zero
        for factors, coeff in self.terms.items():
            prod = coeff * one
            for pair in factors:
                value = values.get(pair)
                if value is None:
                    value = values[pair] = image(pair)
                prod = prod * value
            total = total + prod
        return total

    def evaluate(self, assignment: Assignment):
        """Exact value; integer coefficients and coordinates give an int."""
        return self.substitute(
            lambda pair: bracket_eval(pair[0], pair[1], assignment))

    def expand_to_coordinates(self) -> MultiPoly:
        """Expansion as a polynomial in the symbols' coordinate variables,
        which are lifted onto one namespace first."""
        symbols = sorted({s for factors in self.terms
                          for pair in factors for s in pair})
        zero, one, *coords = align_all(
            [MultiPoly.zero(), MultiPoly.constant(1)]
            + [MultiPoly.variable(x) for s in symbols for x in coordinate_vars(s)])
        coordinates = dict(zip(symbols, zip(coords[0::2], coords[1::2])))
        return self.substitute(
            lambda pair: bracket_eval(pair[0], pair[1], coordinates), zero, one)

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


def dr_bracket_sum(n: int, r: int) -> BracketPolynomial:
    """Bracket-sum expression of the r-th discriminant-resultant: the sum
    of the term_factors products over the size-r subsets I of [n], in
    subsets_colex order, with equal monomials merged.

    Each term's key comes out already canonical, without canonicalize:
    sorting its factors' numbers from _pair_tables sorts its factors.
    Canonicalizing term_factors(n, I) would swap [a_i, a_j] for the n - j
    indices i > j of each j in the complement J of I, and all r(n - 2)
    factors [b_k, a_i], so the term's sign is
    (-1)^(sum_{j in J} (n - j) + r(n - 2)).
    """
    if not (2 <= n and 0 <= r <= n):
        raise ValueError("need n >= 2 and 0 <= r <= n")
    if (n, r) == (2, 2):
        raise BracketSumUndefinedError(
            "the (n, r) = (2, 2) entry equals f_0^2, not a bracket sum")
    pairs, alpha_pairs, beta_pairs = _pair_tables(n)
    p = BracketPolynomial(n)
    terms = p.terms
    for I in subsets_colex(n, r):
        J = [j for j in range(1, n + 1) if j not in I]
        chunks = ([alpha_pairs[j - 1] for j in J]
                  + [beta_pairs[i - 1] for i in I])
        key = tuple(map(pairs.__getitem__,
                        sorted(itertools.chain.from_iterable(chunks))))
        parity = sum(n - j for j in J) + r * (n - 2)
        s = terms.get(key, 0) + (-1 if parity % 2 else 1)
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
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


def random_generic_assignment(n: int, seed: int) -> Dict[Symbol, tuple]:
    """Integer-coordinate assignment with all pairwise brackets nonzero and
    all alpha coordinates nonzero (so a_0*a_n != 0).  Deterministic per seed.

    Coordinates are drawn from [-ASSIGNMENT_BOUND, ASSIGNMENT_BOUND]; after
    ASSIGNMENT_BUDGET rejected candidates AssignmentBudgetError is raised.
    """
    rng = Random(derive_seed(seed, "assignment"))
    symbols = all_symbols(n)
    bound = ASSIGNMENT_BOUND
    for _ in range(ASSIGNMENT_BUDGET):
        cand = {s: (rng.randint(-bound, bound), rng.randint(-bound, bound))
                for s in symbols}
        if any(u == 0 or v == 0 for s, (u, v) in cand.items() if s[0] == "a"):
            continue
        ok = True
        for s, t in itertools.combinations(symbols, 2):
            if bracket_eval(s, t, cand) == 0:
                ok = False
                break
        if ok:
            return cand
    raise AssignmentBudgetError(
        f"no generic assignment at n={n} among {ASSIGNMENT_BUDGET} candidates "
        f"with coordinates in [-{bound}, {bound}]; try another seed or a "
        f"smaller n")


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

    Numeric mode compares values at random generic assignments; symbolic
    mode compares full expansions over the 4n-4 coordinate variables.
    Failures are reported (with witnesses), never raised; an unknown mode
    or a negative number of trials raises ValueError, and an exhausted
    sampling budget raises AssignmentBudgetError before any sum is built.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    check_mode_and_trials(mode, trials)
    report = {"n": n, "mode": mode, "trials": trials if mode == "numeric" else 1,
              "seed": seed, "failures": []}
    if mode == "numeric":
        # the sampler can exhaust its budget: let it do so before the sums
        # are built, which at large n takes far longer
        assignments = [random_generic_assignment(n, derive_seed(seed, trial))
                       for trial in range(trials)]
    sums = {r: dr_bracket_sum(n, r)
            for r in range(n + 1) if (n, r) != (2, 2)}
    if mode == "symbolic":
        coordinates = {s: tuple(MultiPoly.variable(x) for x in coordinate_vars(s))
                       for s in all_symbols(n)}
        f_n, f_m = forms_from_assignment(coordinates, n)
        series = dr_series(f_n, f_m, mode="symbolic")
        for r in range(n + 1):
            if (n, r) == (2, 2):
                expected = f_m.coefficients[0] ** 2
            else:
                expected = sums[r].expand_to_coordinates()
            if series.entries[r] != expected:
                report["failures"].append({"r": r, "witness": "symbolic expansion"})
        return report
    for trial, assignment in enumerate(assignments):
        f_n, f_m = forms_from_assignment(assignment, n)
        series = dr_series(f_n, f_m, mode="numeric")
        for r in range(n + 1):
            if (n, r) == (2, 2):
                expected = f_m.coefficients[0] ** 2
            else:
                expected = sums[r].evaluate(assignment)
            if series.entries[r] != expected:
                report["failures"].append({
                    "trial": trial, "r": r,
                    "assignment": assignment_to_json(assignment),
                    "series": format_rational(series.entries[r]),
                    "bracket_sum": format_rational(expected),
                })
    return report


def assignment_to_json(assignment: Assignment) -> dict:
    return {symbol_name(s): [format_rational(u), format_rational(v)]
            for s, (u, v) in sorted(assignment.items())}
