"""Binary forms, Bezout and Sylvester matrices, exact determinants and
the discriminant-resultant series.

A degree-m form is f = sum_i a_i x^i y^(m-i).  The resultant is
sign-normalized so that it agrees with the bracket product of the symbols
of the two forms: signed_resultant = (-1)^(d*e) * det(Sylvester).  It is
computed as the determinant of the d x d hybrid Bezout matrix, half the
order of the Sylvester matrix (Chionh, Zhang & Goldman, J. Symbolic
Computation 2002); the Sylvester matrix is kept as the reference it is
tested against.  The DR series is sampled at t = 0..n and interpolated.
Over ints and dual numbers each sample is the Bezout determinant, of
order n - 1, of h_t = f_x + t*y*f_m and k_t = f_y - t*x*f_m, whose
resultant is the series times (-1)^(n+1) * n^(n-2) (Euler's identity
x*h_t + y*k_t = n*f; the proof is in dr_series).  Over MultiPoly each
sample is det(B0 + t*B1) of order n, the Bezout matrix of f_n with its
second form linear in t, built twice: the order n - 1 entries carry about
twice as many terms, which costs the expansion more than the lower order
saves.  Each computation takes its forms in once, in _one_ring:
rational forms are cleared there to integer forms, whose result is
unscaled by its grading, so every determinant, exact division and
interpolation runs over the ints, MultiPoly or DualScalar; MultiPoly
coefficients are lifted onto one namespace, and on forms with a variable
a fixed one (a constant polynomial) enters as its int; and the
determinant is picked from the coefficients: Bareiss elimination
(det_fraction_free) over ints and dual numbers, and division-free
expansion by minors (det_by_minors) whenever a coefficient is a
MultiPoly, so that results stay MultiPoly: with sparse symbolic entries,
elimination's products and exact divisions of large minors would be the
dominant cost.  The expansion multiplies MultiPoly's packed term dicts in
place into its minors.  The Bezout matrices of a DR series are
persymmetric: Bareiss eliminates half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Sequence

from . import multipoly
from .multipoly import MultiPoly, align_all, exact_div, interpolate_in_t
from .rationals import DualScalar, format_rational, parse_rational


class NumericDegenerateError(ArithmeticError):
    """a_0*a_n vanished where the construction needs to divide by it, or
    no pivot with a nonzero value part was left (dual numbers only)."""


@dataclass(frozen=True)
class BinaryForm:
    """Coefficients a_0..a_m of f = sum a_i x^i y^(m-i)."""

    degree: int
    coefficients: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("negative degree")
        if len(self.coefficients) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

    @classmethod
    def from_coeffs(cls, coefficients: Sequence) -> "BinaryForm":
        coefficients = tuple(coefficients)
        return cls(len(coefficients) - 1, coefficients)

    @classmethod
    def generic(cls, degree: int, prefix: str = "a") -> "BinaryForm":
        """Form with fresh symbolic coefficients prefix0..prefixm."""
        return cls.from_coeffs(tuple(MultiPoly.variable(f"{prefix}{i}")
                                     for i in range(degree + 1)))

    def x_dx(self) -> "BinaryForm":
        """x * d/dx, coefficient-wise i*a_i (same formal degree)."""
        return BinaryForm.from_coeffs(tuple(c * i
                                            for i, c in enumerate(self.coefficients)))

    def scale(self, s) -> "BinaryForm":
        return BinaryForm.from_coeffs(tuple(c * s for c in self.coefficients))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "coefficients": [format_rational(c) for c in self.coefficients]}

    @classmethod
    def from_json(cls, data: dict) -> "BinaryForm":
        """Form from {"degree": int, "coefficients": ["p/q", ...]}; raises
        TypeError or ValueError on any other shape."""
        coeffs, degree = data["coefficients"], data["degree"]
        if not (isinstance(coeffs, list)
                and all(isinstance(s, str) for s in coeffs)):
            raise TypeError("coefficients must be a list of strings")
        if type(degree) is not int:
            raise TypeError("degree must be an integer")
        form = cls.from_coeffs(tuple(parse_rational(s) for s in coeffs))
        if form.degree != degree:
            raise ValueError("degree field disagrees with coefficient count")
        return form


def sl2_transform(f: BinaryForm, g: Sequence) -> BinaryForm:
    """(g.f)(x,y) := f(a*x + b*y, c*x + d*y) for g = (a, b, c, d)."""
    a, b, c, d = g
    m = f.degree
    # coefficients of (a*x + b*y)^i * (c*x + d*y)^(m-i), accumulated exactly
    out = [0 * f.coefficients[0] for _ in range(m + 1)]
    for i, ci in enumerate(f.coefficients):
        if ci == 0:
            continue
        fac = _expand([(a, -b)] * i + [(c, -d)] * (m - i))
        for j, w in enumerate(fac):
            out[j] = out[j] + ci * w
    return BinaryForm.from_coeffs(tuple(out))


def _expand(pairs: Sequence[tuple]) -> list:
    """Coefficients c_0..c_m (of x^j y^(m-j)) of prod_j (u_j x - v_j y)."""
    coeffs = [1]
    for u, v in pairs:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c * u
            nxt[i] += -c * v
        coeffs = nxt
    return coeffs


def sylvester_matrix(f: BinaryForm, g: BinaryForm):
    """(d+e) x (d+e) Sylvester matrix: e shifted rows of f, then d of g.

    Rows carry the coefficients of the forms read as degree-d (resp. e)
    polynomials in x at y = 1, highest power first.  It is the reference
    that the Bezout resultant is tested against.
    """
    d, e = f.degree, g.degree
    if d < 1 or e < 1:
        raise ValueError("sylvester_matrix needs both degrees >= 1")
    if f.is_zero() or g.is_zero():
        raise ValueError("zero form")
    n = d + e
    frow = list(reversed(f.coefficients))  # a_d .. a_0
    grow = list(reversed(g.coefficients))
    M = []
    for s in range(e):
        M.append([0] * s + frow + [0] * (n - d - 1 - s))
    for s in range(d):
        M.append([0] * s + grow + [0] * (n - e - 1 - s))
    return M


def bezout_matrix(f: BinaryForm, g: BinaryForm):
    """d x d hybrid Bezout matrix of f and g, for d = deg f >= e = deg g >= 1.

    Column i holds the coefficient of x^i (at y = 1).  The first d - e rows
    are x^s * g for s = 0..d-e-1.  With G = x^(d-e) * g, both read as
    polynomials of formal degree d, and c_pq = f_p G_q - f_q G_p, Bezout
    row k = 1..e holds at column i the value -sum_{j<k} c_{d-k+1+j, i-j};
    row k is row k-1 shifted one column right, minus c_{d-k+1, i}, so the
    whole matrix costs 2*d*e ring multiplications.
    det(bezout_matrix(f, g)) = (-1)^((d+1)*e) * res(f, g), the resultant of
    the Sylvester matrix.  Every entry is linear in g, so a zero g is
    allowed (it gives a matrix of zeros in the Bezout rows).  For d = e it
    is persymmetric, M[i][j] == M[d-1-j][d-1-i]: a symmetric Bezoutian
    with its columns reversed (Heinig & Rost 1984); it is built in full, as
    over the ints an entry costs about as much as copying its mirror image.
    """
    d, e = f.degree, g.degree
    if not 1 <= e <= d:
        raise ValueError("bezout_matrix needs deg f >= deg g >= 1")
    a, b = f.coefficients, g.coefficients
    G = (0,) * (d - e) + b
    M = [[0] * s + list(b) + [0] * (d - e - 1 - s) for s in range(d - e)]
    row = [0] * d
    for k in range(1, e + 1):
        p = d - k + 1
        ap, Gp = a[p], G[p]
        row = [0] + row[:-1]
        row = [row[i] - (ap * G[i] - a[i] * Gp) for i in range(d)]
        M.append(row)
    return M


def det_fraction_free(M):
    """Exact determinant by Bareiss elimination (Bareiss, Math. Comp. 1968).

    Works over the ints (every division is an exact integer division, so an
    integer matrix never leaves the integers), dual numbers and MultiPoly.
    The library calls it on ints and dual numbers; MultiPoly matrices go
    through det_by_minors, and this stays the ring-generic reference that
    kernel is tested against.  A Fraction entry raises TypeError at every
    order: from order 3 on the first exact division refuses it, and a check
    of the entries does so at orders 1 and 2 and where a column of zeros
    ends the elimination before that division.  Dual numbers work when
    every pivot has a nonzero value part; otherwise NumericDegenerateError
    is raised.  An order-N matrix takes about N^3/3 updates, each two
    products and one exact division; resultants of numeric forms call it
    on Bezout matrices of order max(d, e), and their DR series of degree n
    on the Bezout matrices of h_t and k_t, of order n - 1.  A
    persymmetric matrix, as bezout_matrix gives for d = e, goes through
    _det_persymmetric first, in about N^3/6 updates; on a zero diagonal
    pivot that pass gives up, and the elimination below runs on M, as it
    does on any other matrix (a hybrid Bezout matrix of d > e among them).
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    if n <= 2:
        _refuse_fractions(M)
    if (det := _det_persymmetric(M)) is not None:
        return det
    A = [list(row) for row in M]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not _is_unit_pivot(A[k][k]):
            swap = None
            for i in range(k + 1, n):
                if _is_unit_pivot(A[i][k]):
                    swap = i
                    break
            if swap is None:
                if all(A[i][k] == 0 for i in range(k, n)):
                    _refuse_fractions(M)
                    return A[0][0] * 0
                raise NumericDegenerateError("no pivot with a nonzero value")
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        pivot_row = A[k]
        pivot = pivot_row[k]
        # column k below the pivot is never read again, so it is left as is
        for i in range(k + 1, n):
            row = A[i]
            lead = row[k]
            for j in range(k + 1, n):
                num = row[j] * pivot - lead * pivot_row[j]
                row[j] = num if prev is None else exact_div(num, prev)
        prev = pivot
    det = A[n - 1][n - 1]
    return -det if sign < 0 else det


def _det_persymmetric(M):
    """det M = (-1)^(N(N-1)/2) * det S by Bareiss on the symmetric S = M*J
    (M's columns reversed), which stays symmetric: only S[i][j] with j >= i
    is updated, and S[i][k] is read as S[k][i].  None when M is not
    persymmetric, M[i][j] == M[N-1-j][N-1-i] with both of one class (so a
    Fraction in the unread half is still refused), or when a pivot S[k][k]
    has a zero value; a dual matrix may so get its determinant where the
    general elimination finds no unit pivot in a column and raises."""
    n = len(M)
    for i in range(n - 1):
        for j in range(n - 1 - i):
            x, y = M[i][j], M[n - 1 - j][n - 1 - i]
            if x.__class__ is not y.__class__ or x != y:
                return None
    A = [row[::-1] for row in M]
    prev = None
    for k in range(n - 1):
        pivot_row = A[k]
        pivot = pivot_row[k]
        if not _is_unit_pivot(pivot):
            return None
        for i in range(k + 1, n):
            row = A[i]
            lead = pivot_row[i]
            for j in range(i, n):
                num = row[j] * pivot - lead * pivot_row[j]
                row[j] = num if prev is None else exact_div(num, prev)
        prev = pivot
    det = A[n - 1][n - 1]
    return -det if n % 4 in (2, 3) else det


def det_by_minors(M):
    """Exact determinant of a matrix of MultiPoly and int entries by
    expansion by minors, with no division (Gentleman & Johnson, ACM TOMS
    1976).

    Row k is expanded against every minor of rows 0..k-1, each kept once
    per column set (a bitmask), so every product is one entry times one
    minor and nothing is divided: N*2^(N-1) - N products for an order-N
    matrix, none of them between two large polynomials.  With sparse
    polynomial entries, as in a Bezout matrix over symbolic coefficients,
    that beats elimination, whose every step multiplies two large minors
    and divides by a third; Bareiss (det_fraction_free) stays the kernel
    for ints and dual numbers.

    The entries are lifted onto one namespace and a field width that
    align_all sizes for products of N entries, so adding two of MultiPoly's
    packed keys multiplies their monomials without a carry.  Each product
    adds into the term dict of its target minor, the sign folded into the
    entry's coefficient, and zeros are dropped once per row.  An entry that
    is neither an int nor a MultiPoly raises TypeError.  Returns a
    MultiPoly, or 1 for the empty matrix, as det_fraction_free does.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    flat = multipoly.align_all([x for row in M for x in row], n)
    like, top = MultiPoly.zero(), 0
    # each entry as its (packed exponent, coeff) pairs
    packed = []
    for x in flat:
        if x.__class__ is MultiPoly:
            like, top = x, (x._top if x._top > top else top)
            packed.append(list(x._terms.items()))
        elif isinstance(x, int):
            packed.append([(0, int(x))] if x else [])
        else:
            raise TypeError(f"det_by_minors takes int and MultiPoly "
                            f"entries, not {x!r}")
    # minors[cols]: the determinant of rows 0..k-1 and the columns in cols
    minors = {1 << j: dict(entry) for j, entry in enumerate(packed[:n])
              if entry}
    for k in range(1, n):
        row = packed[k * n:(k + 1) * n]
        negated = [[(e, -c) for e, c in entry] for entry in row]
        nxt: dict = {}
        for cols, minor in minors.items():
            pairs = minor.items()
            for j, entry in enumerate(row):
                bit = 1 << j
                if cols & bit or not entry:
                    continue
                # row k is the last row of the minor on cols | bit, and
                # column j has (cols & (bit - 1)).bit_count() columns before it
                if (k + (cols & (bit - 1)).bit_count()) & 1:
                    entry = negated[j]
                target = nxt.setdefault(cols | bit, {})
                get = target.get
                for e1, c1 in entry:
                    for e2, c2 in pairs:
                        e = e1 + e2
                        target[e] = get(e, 0) + c1 * c2
        minors = {}
        for cols, minor in nxt.items():
            minor = {e: c for e, c in minor.items() if c}
            if minor:
                minors[cols] = minor
    return multipoly._make(like.variables, like._w, n * top,
                           minors.get((1 << n) - 1, {}))


def _refuse_fractions(M) -> None:
    if any(isinstance(x, Fraction) for row in M for x in row):
        raise TypeError("det_fraction_free takes no Fraction entries")


def _is_unit_pivot(x) -> bool:
    return (x.value if isinstance(x, DualScalar) else x) != 0


def signed_resultant(f: BinaryForm, g: BinaryForm):
    """Resultant normalized to the bracket product of the forms' symbols.

    Equals (-1)^(d*e) * det(sylvester_matrix(f, g)), computed as
    (-1)^((d+1)*e) * det(bezout_matrix(f, g)) for d >= e and as
    (-1)^d * det(bezout_matrix(g, f)) for d < e, the sign of
    res(f, g) = (-1)^(d*e) * res(g, f) folded in.  Degree-0 arguments are
    handled as empty products: res(f, c) = c^d and res(c, g) = c^e.
    The forms are taken over one ring first (_one_ring), degree-0 forms
    too: rational forms are cleared to lambda*f and mu*g, and the result
    is unscaled by res(lambda*f, mu*g) = lambda^e * mu^d * res(f, g);
    forms whose denominators are all 1 give an int, as int forms do.
    """
    d, e = f.degree, g.degree
    if f.is_zero() and g.is_zero():
        raise ValueError("resultant of two zero forms")
    if d and e and (f.is_zero() or g.is_zero()):
        raise ValueError("zero form")
    (f, g), scales, det = _one_ring((f, g))
    # c^k as det([[c]])^k, in the ring of the determinant: a MultiPoly
    # whenever det expands by minors, also where c entered as an int
    if e == 0:
        res, odd = det([[g.coefficients[0]]]) ** d, 0
    elif d == 0:
        res, odd = det([[f.coefficients[0]]]) ** e, 0
    elif d >= e:
        res, odd = det(bezout_matrix(f, g)), (d + 1) * e % 2
    else:
        res, odd = det(bezout_matrix(g, f)), d % 2
    res = -res if odd else res
    if scales is None:
        return res
    lam, mu = scales
    return Fraction(res, lam ** e * mu ** d)


def discriminant(f: BinaryForm):
    """res(f, x*df/dx) / (a_0 * a_d), sign-normalized as above.

    The form is taken over one ring first (_one_ring), and a_0 * a_d is
    tested in that ring, before any determinant: a zero value part (a
    dual number's derivative may be nonzero) raises
    NumericDegenerateError.
    A rational form is cleared to lambda*f and the result unscaled by
    disc(lambda*f) = lambda^(2d-2) * disc(f); a form whose denominators
    are all 1 gives an int, as an int form does.
    """
    d = f.degree
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    (f,), scales, _ = _one_ring((f,))
    denom = f.coefficients[0] * f.coefficients[-1]
    if not _is_unit_pivot(denom):
        raise NumericDegenerateError("a_0 * a_d = 0")
    disc = exact_div(signed_resultant(f, f.x_dx()), denom)
    return disc if scales is None else Fraction(disc, scales[0] ** (2 * d - 2))


@dataclass(frozen=True)
class DRSeries:
    """Coefficients DR_{n,0}..DR_{n,n} of the deformed-resultant series."""

    n: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.n + 1:
            raise ValueError("series must have n + 1 entries")

    def to_json(self) -> dict:
        ents = []
        for e in self.entries:
            if isinstance(e, MultiPoly):
                ents.append(e.to_json())
            else:
                ents.append(format_rational(e))
        return {"n": self.n, "entries": ents}


def dr_series(f_n: BinaryForm, f_m: BinaryForm, mode: str = "numeric") -> DRSeries:
    """Series of res(f_n, x*d/dx f_n + t*x*y*f_m) / (a_0*a_n) in t.

    f_m must have degree n-2.  The series DR(t) is evaluated at t = 0..n
    and the samples are interpolated in t into all n + 1 entries.  Each
    entry is an integer polynomial in the coefficients, so integer forms
    stay in the integers throughout.  The forms are taken over one ring
    first (_one_ring), which also picks the determinant, and the
    determinant picks the samples.

    Over ints and dual numbers (Bareiss elimination), a sample is
    DR(t) = (-1)^(n+1) * res(h_t, k_t) / n^(n-2), with the degree-(n-1)
    forms h_t = f_x + t*y*f_m and k_t = f_y - t*x*f_m: the determinant of
    their Bezout matrix, of order n - 1 (its sign (-1)^(n*(n-1)) is 1),
    divided exactly by a constant.  With res the bracket product, so that
    res(f, x) = a_0, res(h, y) = (-1)^(n-1) * n*a_n and
    res(H, F + Q*H) = res(H, F), Euler's identity x*h_t + y*k_t = n*f gives
        res(f, x*h_t) = res(f, x) * res(f, h_t) = a_0 * res(f, h_t),
        n^(n-1) * res(f, h_t) = res(h_t, n*f) = res(h_t, y*k_t),
        res(h_t, y*k_t) = res(h_t, y) * res(h_t, k_t)
                        = (-1)^(n-1) * n*a_n * res(h_t, k_t),
    and dividing the first by a_0*a_n gives the sample.  a_0*a_n is still
    tested first, and a zero value raises NumericDegenerateError, as the
    series is defined by dividing by it.

    Over MultiPoly (expansion by minors), a sample is
    det(B0 + t*B1) / (a_0*a_n) of order n, with
    B0 = bezout_matrix(f_n, x*d/dx f_n) and B1 = bezout_matrix(f_n, x*y*f_m)
    built once (the Bezout matrix is linear in its second form; the sign
    (-1)^((n+1)*n) is 1).  The order n - 1 route is not taken there: its
    entries carry about twice as many terms, and the expansion's cost grows
    with them faster than it falls with the order (generic dr-series at
    n = 7 took about a quarter longer that way).

    Forms with rational coefficients are scaled in _one_ring to integer
    forms lambda*f_n and mu*f_m (lambda, mu the lcm of each form's
    denominators); each entry is then unscaled exactly by the grading
    DR_r(lambda*f, mu*g) = lambda^(2n-2-r) * mu^r * DR_r(f, g), and stays
    an int when lambda = mu = 1.

    mode must be "numeric" or "symbolic" but is read by nothing else: the
    coefficients alone choose the arithmetic and the determinant.
    """
    n = f_n.degree
    if n < 2:
        raise ValueError("dr_series needs degree >= 2")
    if f_m.degree != n - 2:
        raise ValueError("second form must have degree n - 2")
    if mode not in ("numeric", "symbolic"):
        raise ValueError(f"unknown mode: {mode}")
    (f_n, f_m), scales, det = _one_ring((f_n, f_m))
    a, b = f_n.coefficients, f_m.coefficients
    denom = a[0] * a[n]
    if not _is_unit_pivot(denom):  # a dual's derivative may be nonzero
        raise NumericDegenerateError("a_0 * a_n = 0")
    samples = []
    if det is det_by_minors:
        # x*y*f_m has the coefficients 0, b_0, ..., b_{n-2}, 0
        xy_fm = BinaryForm.from_coeffs((0,) + b + (0,))
        B0, B1 = bezout_matrix(f_n, f_n.x_dx()), bezout_matrix(f_n, xy_fm)
        Bt = B0
        for t in range(n + 1):
            if t:  # B0 + t*B1, one addition per entry
                Bt = [[u + v for u, v in zip(r, r1)] for r, r1 in zip(Bt, B1)]
            samples.append(exact_div(det(Bt), denom))
    else:
        # coefficients of x^j*y^(n-1-j): f_x, y*f_m, f_y and x*f_m
        fx = [(j + 1) * a[j + 1] for j in range(n)]
        fy = [(n - j) * a[j] for j in range(n)]
        y_fm, x_fm = b + (0,), (0,) + b
        divisor = n ** (n - 2) if n % 2 else -n ** (n - 2)
        for t in range(n + 1):
            h_t = BinaryForm(n - 1, [u + t * v for u, v in zip(fx, y_fm)])
            k_t = BinaryForm(n - 1, [u - t * v for u, v in zip(fy, x_fm)])
            samples.append(exact_div(det(bezout_matrix(h_t, k_t)), divisor))
    entries = interpolate_in_t(samples)
    if scales is not None:
        lam, mu = scales
        entries = [Fraction(e, lam ** (2 * n - 2 - r) * mu ** r)
                   for r, e in enumerate(entries)]
    return DRSeries(n, tuple(entries))


def _one_ring(forms):
    """The forms of one computation over one ring: (forms, scales, det).

    Forms with a Fraction coefficient become the integer forms s*f, s the
    lcm of f's denominators, and scales holds each s, or is None when
    every s is 1, so that integral rational forms give int results as int
    forms do; a Fraction mixed with a MultiPoly or DualScalar raises
    TypeError, as no ring here holds both.  Otherwise scales is None and
    MultiPoly coefficients are lifted onto one namespace and width, so that
    no product, division or interpolation step remaps its operands; then,
    if some coefficient has a variable, each one without is replaced by its
    int.  Forms without any variable keep their constants, so that taking
    them in again (discriminant through signed_resultant) still finds a
    MultiPoly.  det is the determinant for matrices built from the forms,
    looked up in this module on each call: expansion by minors when a
    coefficient was a MultiPoly, Bareiss otherwise (ints and dual numbers).
    """
    coeffs = [c for f in forms for c in f.coefficients]
    if any(isinstance(c, Fraction) for c in coeffs):
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError("a form mixes Fraction and MultiPoly or "
                            "DualScalar")
        scales = tuple(math.lcm(*(c.denominator for c in f.coefficients))
                       for f in forms)
        forms = tuple(BinaryForm.from_coeffs(tuple(
            c.numerator * (s // c.denominator) for c in f.coefficients))
            for f, s in zip(forms, scales))
        if all(s == 1 for s in scales):
            scales = None  # integral: the results are ints, as for int forms
        return forms, scales, det_fraction_free
    if not any(c.__class__ is MultiPoly for c in coeffs):
        return forms, None, det_fraction_free
    lifted = align_all(coeffs)
    # keys above 0 hold a variable; a fixed coefficient as an int costs no
    # polynomial operation
    if any(c.__class__ is MultiPoly and any(c._terms) for c in lifted):
        lifted = [c if c.__class__ is not MultiPoly or any(c._terms)
                  else c._terms.get(0, 0) for c in lifted]
    lifted = iter(lifted)
    forms = tuple(BinaryForm.from_coeffs(islice(lifted, f.degree + 1))
                  for f in forms)
    return forms, None, det_by_minors
