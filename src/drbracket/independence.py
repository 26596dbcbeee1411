"""Rank certificates: multiplicative independence of leading monomials and
the Jacobian criterion at random integer points.

Rank over the rationals suffices for multiplicative independence of
Laurent monomials (the target group is torsion-free), so exact Gaussian
elimination with a deterministic pivot scan does all the work.  It runs
fraction-free over the integers, cross-multiplying rows as Bareiss does
(Math. Comp. 1968) and dividing each updated row by the gcd of its
entries; a dependent system's kernel vector comes out primitive, with a
fixed sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from .binforms import BinaryForm, NumericDegenerateError, dr_series
from .brackets import derive_seed
from .laurent import LaurentMonomial, degree_matrix_P, dr_rows
from .rationals import DualScalar

# Largest n at which run_independence_suite runs the Jacobian check, which
# grows steeply with n (one series per point, a Bareiss determinant of order
# n - 1 at n + 1 values of t on integers of 2n*K bits, K from
# _gradient_radix_bits).
JACOBIAN_N_MAX = 7
# jacobian_rank draws each coefficient from [-JACOBIAN_BOUND, JACOBIAN_BOUND]
JACOBIAN_BOUND = 20


def _eliminate(M: Sequence[Sequence[int]]):
    """Fraction-free forward elimination over the integers; returns
    (rank, pivot trail, kernel).

    Works on the rows of [M | I]: each row below the pivot row p becomes
    p[c]*row - row[c]*p and is then divided by the gcd of its entries, so
    every row is a primitive integer multiple of the row rational
    elimination would hold there.
    Pivots are chosen by a row-major scan for the first nonzero entry in
    the current column, so rank and trail are those of rational
    elimination and certificates are byte-for-byte reproducible.
    The I part records which combination of input rows each row equals.
    When the rows are dependent, the kernel is the first zero row's
    combination divided by its gcd, signed so that the coefficient on
    that row's own input index is positive: a primitive integer vector v
    with v.M = 0.  kernel is None otherwise.  Entries must be ints
    (TypeError otherwise).
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    for row in M:
        for x in row:
            if not isinstance(x, int):
                raise TypeError(f"not an integer matrix entry: {x!r}")
    A = [list(row) + [int(i == j) for j in range(rows)]
         for i, row in enumerate(M)]
    origin = list(range(rows))
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
        origin[rank], origin[pivot] = origin[pivot], origin[rank]
        trail.append((pivot, c))
        prow = A[rank]
        pv = prow[c]
        for r in range(rank + 1, rows):
            f = A[r][c]
            if f:
                row = [pv * x - f * y for x, y in zip(A[r], prow)]
                g = math.gcd(*row)
                A[r] = [x // g for x in row] if g != 1 else row
        rank += 1
        if rank == rows:
            break
    if rank == rows:
        return rank, trail, None
    combo = A[rank][cols:]
    g = math.gcd(*combo)
    if combo[origin[rank]] < 0:
        g = -g
    return rank, trail, [x // g for x in combo]


def integer_matrix_rank(M: Sequence[Sequence[int]]):
    """Rank over the rationals plus the deterministic pivot trail, by the
    fraction-free integer elimination of _eliminate; entries must be ints
    (TypeError otherwise)."""
    rank, trail, _ = _eliminate(M)
    return rank, trail


@dataclass(frozen=True)
class IndependenceCertificate:
    matrix: tuple          # integer exponent rows
    rank: int
    pivot_trail: tuple
    verdict: str           # "independent" | "dependent"
    kernel: Optional[tuple] = None

    def to_json(self) -> dict:
        out = {"matrix": [list(r) for r in self.matrix],
               "rank": self.rank,
               "pivots": [list(p) for p in self.pivot_trail],
               "verdict": self.verdict}
        if self.kernel is not None:
            out["kernel"] = list(self.kernel)
        return out


def _certify(rows: Sequence[Sequence[int]]) -> IndependenceCertificate:
    """Independent iff the integer rows have full rank; dependent verdicts
    carry a kernel vector that is checked to annihilate the rows."""
    rows = tuple(map(tuple, rows))
    rank, trail, kernel = _eliminate(rows)
    if rank == len(rows):
        return IndependenceCertificate(rows, rank, tuple(trail), "independent")
    if (kernel is None or not any(kernel)
            or any(sum(k * row[c] for k, row in zip(kernel, rows))
                   for c in range(len(rows[0])))):
        raise ArithmeticError("kernel vector fails to annihilate the rows")
    return IndependenceCertificate(rows, rank, tuple(trail), "dependent",
                                   tuple(kernel))


def multiplicative_independence(monomials: Sequence[LaurentMonomial],
                                variables: Sequence) -> IndependenceCertificate:
    """Independent iff the exponent matrix has full row rank; dependent
    verdicts carry a verified integer kernel vector."""
    if not monomials:
        raise ValueError("need at least one monomial")
    return _certify([m.row(variables) for m in monomials])


def _gradient_radix_bits(n: int, top: int) -> int:
    """Bits K of the radix R = 2**K with which jacobian_matrix packs its 2n
    directions, at a point whose coordinates are at most top >= 1 in
    absolute value.

    The dual series samples det Bez(h_t, k_t) (t = 0..n), the Bezout
    matrix of order n - 1 of h_t = f_x + t*y*f_m and k_t = f_y - t*x*f_m,
    and DR_{n,r} is the coefficient of T^r in
    (-1)^(n+1) * det Bez(h_T, k_T) / n^(n-2) (binforms.dr_series): integer
    polynomials in the 2n coefficients.  The coefficients of h_t and k_t,
    (p+1)*a_{p+1} + t*b_p and (n-q)*a_q - t*b_{q-1}, have l1 norm <= n + t,
    so c_pq = h_p*k_q - h_q*k_p has l1 norm <= 2(n+t)^2 <= 8n^2, a Bezout
    entry, a sum of at most n - 1 of them, <= 8n^3, and a row of n - 1
    entries <= 8n^4; with T formal the coefficients have l1 norm <= n + 1,
    so the same bounds hold.  Every Bareiss entry is, up to sign, a minor
    of Bez(h_t, k_t) of order k <= n - 1, whose l1 norm is at most the
    product of its rows', (8n^4)^k, and whose degree is 2k; DR_{n,r} and
    the samples have degree 2n - 2 and l1 norm <= (8n^4)^(n-1), as the
    division by n^(n-2) only shrinks it.  So each partial of any of them
    is at most 2(n-1) * (8n^4)^(n-1) * top^(2n-3) in absolute value at the
    point.  The factor 2^n also covers the forward differences of the
    interpolation, and the two extra bits put every such partial strictly
    inside (-R/2, R/2).
    """
    return (2 * (n - 1) * 2 ** n * (8 * n ** 4) ** (n - 1)
            * top ** (2 * n - 3)).bit_length() + 2


def jacobian_matrix(a: Sequence[int], b: Sequence[int]) -> list:
    """Jacobian of {DR_{n,r} : r = 0, 2, ..., n} at the integer point with
    coefficients a = a_0..a_n of f_n and b = b_0..b_{n-2} of f_m.

    Row i holds the partial derivatives of DR_{n, dr_rows(n)[i]}; column c
    is the direction a_c for c <= n and b_{c-n-1} after, 2n columns in all.
    All 2n directions share one numeric series of integer dual numbers
    (vector forward mode, Griewank & Walther 2008, the vector held as one
    integer by Kronecker substitution): coefficient c gets the derivative
    R**c, R = 2**_gradient_radix_bits(n, top).  Each dual operation is
    Z-linear in the derivative, so a packed derivative is the sum of R**c
    times its partial along c, and every division stays exact.  With every
    such partial inside (-R/2, R/2), a zero test on a packed derivative
    agrees with the 2n scalar ones and an entry's balanced base-R digits
    are its partials; one left over after 2n digits raises ArithmeticError.
    Raises NumericDegenerateError where elimination finds no pivot with a
    nonzero value.
    """
    n = len(a) - 1
    coords = list(a) + list(b)
    bits = _gradient_radix_bits(n, max(1, *map(abs, coords)))
    seeded = [DualScalar(x, 1 << (bits * c)) for c, x in enumerate(coords)]
    series = dr_series(BinaryForm.from_coeffs(seeded[:n + 1]),
                       BinaryForm.from_coeffs(seeded[n + 1:]), mode="numeric")
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    jac = []
    for r in dr_rows(n):
        packed = series.entries[r].derivative
        row = []
        for _ in range(2 * n):
            digit = ((packed + half) & mask) - half
            row.append(digit)
            packed = (packed - digit) >> bits
        if packed:
            raise ArithmeticError(f"DR_{n},{r}: packed partials overflow "
                                  f"the radix 2**{bits}")
        jac.append(row)
    return jac


def jacobian_rank(n: int, points: int = 10, seed: int = 0) -> dict:
    """Rank of jacobian_matrix at random integer points.

    A point with a_0*a_n = 0, or where elimination finds no pivot with a
    nonzero value, is resampled.  One full-rank point certifies algebraic
    independence.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = Random(derive_seed(seed, f"jacobian:{n}"))
    ranks = []
    sampled = 0
    budget = 50 * points
    while len(ranks) < points and sampled < budget:
        sampled += 1
        a = [rng.randint(-JACOBIAN_BOUND, JACOBIAN_BOUND) for _ in range(n + 1)]
        b = [rng.randint(-JACOBIAN_BOUND, JACOBIAN_BOUND) for _ in range(n - 1)]
        if a[0] == 0 or a[n] == 0:
            continue
        try:
            jac = jacobian_matrix(a, b)
        except NumericDegenerateError:
            continue
        rank, _, _ = _eliminate(jac)
        ranks.append({"point": {"a": a, "b": b}, "rank": rank})
    return {"n": n, "seed": seed, "points": len(ranks),
            "expected_rank": len(dr_rows(n)),
            "max_rank": max((p["rank"] for p in ranks), default=0),
            "per_point": ranks}


def run_independence_suite(n_max: int, seed: int = 0,
                           jacobian_points: int = 10) -> dict:
    """Certificates for every 3 <= n <= n_max: degree matrix rank,
    multiplicative independence of the leading monomials, and (for
    n <= JACOBIAN_N_MAX) the Jacobian rank check."""
    if n_max < 3:
        raise ValueError("the suite starts at n = 3")
    per_n = []
    for n in range(3, n_max + 1):
        method = "direct" if n == 3 else "closed_form"
        P = degree_matrix_P(n, method)
        cert = _certify(P.matrix())
        entry = {
            "n": n,
            "method": method,
            "degree_matrix": P.to_json(),
            "rank": cert.rank,
            "expected_rank": len(P.rows),
            "certificate": cert.to_json(),
            "verdict": cert.verdict,
        }
        if n <= JACOBIAN_N_MAX:
            jr = jacobian_rank(n, points=jacobian_points, seed=seed)
            entry["jacobian"] = jr
            if jr["max_rank"] != jr["expected_rank"]:
                entry["verdict"] = "dependent"
        per_n.append(entry)
    return {"n_max": n_max, "seed": seed, "results": per_n,
            "all_independent": all(e["verdict"] == "independent"
                                   for e in per_n)}
