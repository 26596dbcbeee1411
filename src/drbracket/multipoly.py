"""Sparse multivariate polynomials with integer coefficients, immutable.

Each term's exponent vector over a sorted variable namespace is packed into
one int key (Monagan & Pearce, CASC 2007): a field of w bits per variable,
the first variable most significant, so that int order is lex order and a
monomial product is one key addition.  A polynomial carries its width w (8,
16, 32, ... bits) and a bound top on its exponents below 2^(w-1), so the top
bit of every field is a guard no key sets: a product whose tops could reach
it widens its operands first, and an exact quotient sees a borrow as a
cleared guard bit.  Operands over two namespaces or widths are remapped onto
the sorted union and the wider width; a long computation lifts its inputs
once with align_all.  ``terms`` is a read-only view keyed by exponent tuples;
library code (binforms' expansion by minors too) reads the packed dict.
Every coefficient is a plain int: rational forms are cleared to integer
forms once where binforms takes them in.
"""

from __future__ import annotations

import math
# the C core of heapq: importing heapq itself also loads its pure-Python
# module, about 0.15 MiB more peak RSS for three functions
from _heapq import heapify, heappop, heappush
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .rationals import DualScalar, NotDivisibleError, parse_rational


class MissingVariableError(KeyError):
    """Raised when an evaluation point omits a variable."""


def _coeff(x) -> int:
    """A coefficient as a plain int; anything but an int is refused."""
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an integer coefficient: {x!r}")


def _quotient(a: int, b: int) -> int:
    """The exact integer quotient a / b, or NotDivisibleError."""
    q, r = divmod(a, b)
    if r:
        raise NotDivisibleError(f"{a} not divisible by {b}")
    return q


def _width(top: int) -> int:
    """The narrowest width of 8, 16, 32, ... bits with its guard above top."""
    w = 8
    while top >> (w - 1):
        w *= 2
    return w


def _guards(m: int, w: int) -> int:
    """The guard bits of m fields of w bits, as one int."""
    return ((1 << m * w) - 1) // ((1 << w) - 1) << (w - 1)


def _pack(exps, w: int) -> int:
    """The sum of exps[j] * 2^(w*(m-1-j)): negative exponents pack too."""
    key = 0
    for k in exps:
        key = (key << w) + k
    return key


def _unpack(key: int, w: int, m: int) -> tuple:
    if w == 8:  # a byte per field, the most common width
        return tuple(key.to_bytes(m, "big"))
    mask = (1 << w) - 1
    return tuple((key >> s) & mask for s in range((m - 1) * w, -1, -w))


class MultiPoly:
    """Immutable sparse polynomial with int coefficients."""

    __slots__ = ("variables", "_terms", "_w", "_top")

    def __new__(cls, variables: Sequence[str], terms: Mapping[tuple, object]):
        vs = tuple(variables)
        if any(u >= v for u, v in zip(vs, vs[1:])):
            raise ValueError("variable namespace must be sorted, without "
                             "repeats")
        rows = []
        for exps, c in terms.items():
            c = _coeff(c)
            if len(exps) != len(vs):
                raise ValueError("exponent vector does not match namespace")
            if any(not isinstance(k, int) or k.__class__ is bool
                   for k in exps):
                raise TypeError(f"not an integer exponent in {exps!r}")
            if any(k < 0 for k in exps):
                raise ValueError("negative exponent in polynomial term")
            if c:
                rows.append((exps, c))
        top = max((max(e, default=0) for e, _ in rows), default=0)
        w = _width(top)
        return _make(vs, w, top, {_pack(e, w): c for e, c in rows})

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):  # copies keep the width and packed keys
        return _make, (self.variables, self._w, self._top, dict(self._terms))

    @property
    def terms(self) -> Mapping[tuple, int]:
        """The terms keyed by exponent tuples: a read-only copy."""
        w, m = self._w, len(self.variables)
        return MappingProxyType({_unpack(e, w, m): c
                                 for e, c in self._terms.items()})

    # -- constructors -----------------------------------------------------
    @classmethod
    def constant(cls, c) -> "MultiPoly":
        c = _coeff(c)
        return _make((), 8, 0, {0: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): 1})

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _make((), 8, 0, {})

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if other.__class__ is not MultiPoly:
            if not isinstance(other, int):
                return NotImplemented
            c = int(other)
            return self._terms == ({0: c} if c else {})
        a, b = ((self, other) if other.variables == self.variables
                and other._w == self._w else align_all((self, other)))
        return a._terms == b._terms

    def __hash__(self):
        p = self._trim()
        return hash((p.variables, frozenset(p.terms.items())))

    def _trim(self) -> "MultiPoly":
        """Drop variables that occur in no term (canonical for eq/hash)."""
        used = 0
        for e in self._terms:
            used |= e
        fields = _unpack(used, self._w, len(self.variables))
        if all(fields):
            return self
        vs = tuple(v for v, k in zip(self.variables, fields) if k)
        return _remap(self, vs, self._w)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.variables, self._w, self._top,
                     {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def _combine(self, other, negate: bool):
        """self + other, or self - other when negate is set."""
        if other.__class__ is MultiPoly:
            a, b = ((self, other) if other.variables == self.variables
                and other._w == self._w else align_all((self, other)))
            pairs = b._terms.items()
            top = a._top if a._top > b._top else b._top
        elif isinstance(other, int):
            # a constant is the term at key 0, whatever the namespace
            a, pairs, top = self, ((0, int(other)),), self._top
        else:
            return NotImplemented
        return _make(a.variables, a._w, top, _sum(a._terms, pairs, negate))

    def __mul__(self, other):
        if other.__class__ is not MultiPoly:
            if not isinstance(other, int):
                return NotImplemented
            c = int(other)
            return _make(self.variables, self._w, self._top,
                         {e: c * v for e, v in self._terms.items()} if c else {})
        top = self._top + other._top
        if (other.variables == self.variables and other._w == self._w
                and not top >> (self._w - 1)):
            a, b = self, other
        else:  # remap, and widen where the product's top reaches a guard bit
            a, b = align_all((self, other), 2)
        return _make(a.variables, a._w, top, _product(a._terms, b._terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers need a non-negative integer")
        out = MultiPoly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exact_div(self, q) -> "MultiPoly":
        """Return r with self == q*r, or raise NotDivisibleError.  An int q
        divides every coefficient exactly."""
        if q.__class__ is not MultiPoly:
            if not isinstance(q, int):
                raise TypeError(f"cannot divide a polynomial by {q!r}")
            q = _make(self.variables, self._w, 0, {0: int(q)} if q else {})
        if q.is_zero:
            raise ZeroDivisionError("division by zero")
        a, b = ((self, q) if q.variables == self.variables
                and q._w == self._w else align_all((self, q)))
        # (e | guard) - e_q keeps every guard bit of e exactly when no field
        # of e_q exceeds that of e; clearing them leaves the quotient's key
        w, m = a._w, len(a.variables)
        guard = _guards(m, w)
        if len(b._terms) == 1:
            ((e_q, c_q),) = b._terms.items()
            if not e_q:  # a constant divides the coefficients only
                return _make(a.variables, w, a._top, {
                    e: _quotient(c, c_q) for e, c in a._terms.items()})
            quo = {}
            for e, c in a._terms.items():
                d = (e | guard) - e_q
                if d & guard != guard:
                    raise NotDivisibleError("no exact quotient")
                quo[d ^ guard] = c if c_q == 1 else _quotient(c, c_q)
            return _make(a.variables, w, a._top, quo)
        if _not_a_multiple_at_a_point(a, b):
            raise NotDivisibleError("no exact quotient")
        # Long division by lex-leading terms, the remainder keyed by negated
        # keys so that the heap's smallest is its leading term.  A key pushed
        # lies below the term divided out, so it enters the heap once while
        # live; a popped key that has since cancelled is skipped.  In an
        # exact division a remainder term is a term of q times one of the
        # quotient, with no exponent above the dividend's largest in its
        # variable: one above that ceiling shows that q does not divide self.
        ceiling = guard + _pack(map(max, zip(*(
            _unpack(e, w, m) for e in a._terms))), w)
        lt_q = max(b._terms)
        c_q = b._terms[lt_q]
        q_rest = [(e, c) for e, c in b._terms.items() if e != lt_q]
        rem = {-e: c for e, c in a._terms.items()}
        get = rem.get
        heap = list(rem)
        heapify(heap)
        quo: dict = {}
        while heap:
            key = heappop(heap)
            c_r = rem.pop(key, None)  # the leading term cancels exactly
            if c_r is None:
                continue
            diff = (guard - key) - lt_q  # -key sets no guard bit
            if diff & guard != guard:
                raise NotDivisibleError("no exact quotient")
            diff ^= guard
            c = _quotient(c_r, c_q)
            quo[diff] = c
            for e, cq in q_rest:
                tgt = e + diff
                if (ceiling - tgt) & guard != guard:  # a field above it
                    raise NotDivisibleError("no exact quotient")
                tgt = -tgt
                old = get(tgt)
                if old is None:
                    rem[tgt] = -c * cq
                    heappush(heap, tgt)
                else:
                    s = old - c * cq
                    if s:
                        rem[tgt] = s
                    else:
                        del rem[tgt]
        return _make(a.variables, w, a._top, quo)

    def derivative(self, var: str) -> "MultiPoly":
        vs, w = self.variables, self._w
        if var not in vs:
            return _make(vs, w, self._top, {})
        shift = (len(vs) - 1 - vs.index(var)) * w
        mask, one = (1 << w) - 1, 1 << shift
        # lowering the exponent of var is one-to-one on the terms it keeps
        out = {e - one: c * k for e, c in self._terms.items()
               if (k := (e >> shift) & mask)}
        return _make(vs, w, self._top, out)

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, point: Mapping[str, object]):
        """Exact value at a point; values may be ints or rationals."""
        for v in self.variables:
            if v not in point:
                raise MissingVariableError(v)
        vals, acc = [point[v] for v in self.variables], 0
        for e, c in self.terms.items():
            term = c
            for x, k in zip(vals, e):
                if k:
                    term = term * x ** k
            acc = acc + term
        return acc

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> dict:
        p = self._trim()
        recs = [{"coefficient": str(c), "exponents": list(e)}
                for e, c in sorted(p.terms.items())]
        return {"variables": list(p.variables), "terms": recs}

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        """Inverse of to_json; a non-integral "p/q" coefficient or a
        monomial listed twice raises ValueError."""
        terms = {}
        for rec in data["terms"]:
            c = parse_rational(rec["coefficient"])
            if c.denominator != 1:
                raise ValueError(f"not an integer coefficient: {c}")
            exps = tuple(rec["exponents"])
            if exps in terms:
                raise ValueError(f"exponents {list(exps)} listed twice")
            terms[exps] = c.numerator
        return cls(list(data["variables"]), terms)

    def __str__(self):
        if self.is_zero:
            return "0"
        w, m, parts = self._w, len(self.variables), []
        for e, c in sorted(self._terms.items(), reverse=True):
            mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k
                            in zip(self.variables, _unpack(e, w, m)) if k)
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)

    __repr__ = __str__


_POINT_TEST_TOP = 64  # keeps b(x0) within a few hundred bits per variable


def _not_a_multiple_at_a_point(a: MultiPoly, b: MultiPoly) -> bool:
    """True when a(x0) is no multiple of b(x0) at x0 = (2, 3, 4, ...), which
    shows that b does not divide a (a = q*b over the integers makes it
    one), so that long division need not run as many steps as a's
    exponents allow; pow reduces a(x0) modulo b(x0) in time logarithmic in
    them.  False, showing nothing, when b has an exponent above
    _POINT_TEST_TOP or |b(x0)| < 2.  a and b share namespace and width."""
    if b._top > _POINT_TEST_TOP:
        return False
    w, m, x0 = a._w, len(a.variables), range(2, len(a.variables) + 2)
    mod = abs(sum(c * math.prod(map(pow, x0, _unpack(e, w, m)))
                  for e, c in b._terms.items()))
    return mod > 1 and sum(
        c * math.prod(map(pow, x0, _unpack(e, w, m), repeat(mod)))
        for e, c in a._terms.items()) % mod != 0


_new = object.__new__
_set_variables = MultiPoly.variables.__set__
_set_terms = MultiPoly._terms.__set__
_set_width = MultiPoly._w.__set__
_set_top = MultiPoly._top.__set__


def _make(variables: tuple, w: int, top: int, terms: dict) -> MultiPoly:
    """Constructor for results of arithmetic, which trusts its inputs
    (nonzero int coefficients, exponents at most top < 2^(w-1)) and sets
    the slots through their descriptors."""
    p = _new(MultiPoly)
    _set_variables(p, variables)
    _set_terms(p, terms)
    _set_width(p, w)
    _set_top(p, top)
    return p


# The two term-dict kernels, shared with the Laurent row ring: a term dict
# maps packed keys to nonzero coefficients, and a sum of two keys is the
# key of the product of their monomials.

def _sum(a: dict, pairs, negate: bool = False) -> dict:
    """The terms of a plus the (key, coeff) pairs, or minus them when
    negate is set, as a new dict without zero coefficients."""
    out = dict(a)
    get = out.get
    for e, c in pairs:
        s = get(e, 0) - c if negate else get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _product(a: dict, b: dict) -> dict:
    """The product of two term dicts without zero coefficients, whose
    fields hold the product's exponents, as a new such dict."""
    if len(a) == 1 or len(b) == 1:
        # a monomial times p: each term moves to a distinct key and, with
        # no zero coefficient in either input, none vanishes
        if len(b) != 1:
            a, b = b, a
        ((e2, c2),) = b.items()
        return {e1 + e2: c1 * c2 for e1, c1 in a.items()}
    out: dict = {}
    get = out.get
    b_items = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in b_items:
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def align_all(values: Sequence, factors: int = 1) -> list:
    """The values with every MultiPoly among them remapped onto the sorted
    union of their namespaces and the widest of their widths, widened until
    a product of ``factors`` of them packs below the guard bits; other
    values are kept as they are."""
    polys = [v for v in values if v.__class__ is MultiPoly]
    vs = tuple(sorted({x for p in polys for x in p.variables}))
    top = max([p._top for p in polys], default=0)
    w = max([_width(factors * top)] + [p._w for p in polys])
    return [_remap(v, vs, w) if v.__class__ is MultiPoly else v for v in values]


def _remap(p: MultiPoly, vs: tuple, w: int) -> MultiPoly:
    """p over the namespace vs, which holds every variable p uses, in
    fields of w bits."""
    if p.variables == vs and p._w == w:
        return p
    m, n, mask = len(p.variables), len(vs), (1 << p._w) - 1
    # (old shift, new shift) of each field of p that vs keeps
    moves = [((m - 1 - i) * p._w, (n - 1 - vs.index(v)) * w)
             for i, v in enumerate(p.variables) if v in vs]
    return _make(vs, w, p._top, {sum(((e >> s) & mask) << t for s, t in moves): c
                                 for e, c in p._terms.items()})


def interpolate_in_t(values: Iterable):
    """Interpolation through the points (0, v_0), ..., (m-1, v_{m-1}).

    Values may be ints, MultiPoly or DualScalar.  Uses Newton forward
    differences: the k-th difference at node 0 is k! times the k-th Newton
    coefficient, and is divided by k! with exact_div, so NotDivisibleError
    is raised if the interpolant does not have integer coefficients.
    Every coefficient combines all values (even the constant term is
    c_0 - 0*c), so with mixed kinds each has the widest kind.  Returns the
    coefficient list of the unique polynomial of degree < m in the
    interpolation parameter, all m of them, trailing zeros included.
    """
    diffs = list(values)
    m = len(diffs)
    # after pass k, diffs[k] is the k-th forward difference at node 0
    for k in range(1, m):
        for i in range(m - 1, k - 1, -1):
            diffs[i] = diffs[i] - diffs[i - 1]
    newton = [exact_div(d, math.factorial(k)) for k, d in enumerate(diffs)]
    # Horner in the Newton basis: p = c_0 + t*(c_1 + (t-1)*(c_2 + ...))
    coeffs = newton[-1:]
    for k in range(m - 2, -1, -1):
        nxt = coeffs[:1] + coeffs
        for j in range(1, len(coeffs)):
            nxt[j] = coeffs[j - 1] - coeffs[j] * k
        nxt[0] = newton[k] - coeffs[0] * k
        coeffs = nxt
    return coeffs


def exact_div(a, b):
    """The exact quotient a / b, by the one rule every layer divides with:
    ints by divmod, MultiPoly and DualScalar by their own exact_div.
    NotDivisibleError when b does not divide a; TypeError for any other
    kind (a rational too, and an int dividend with any other divisor)."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise NotDivisibleError(f"{a} not divisible by {b}")
        return q
    if not isinstance(a, (MultiPoly, DualScalar)):
        raise TypeError(f"no exact division of {a!r} by {b!r}")
    return a.exact_div(b)
