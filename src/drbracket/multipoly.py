"""Sparse multivariate polynomials with integer coefficients.

Terms are keyed by exponent tuples over a sorted variable namespace.
Arithmetic on two different namespaces remaps both operands onto their
sorted union, so mixed namespaces always work; a long computation (a
symbolic DR series, a coordinate expansion) lifts its inputs onto one
namespace once with align_all, and its arithmetic then never remaps.
Every coefficient is a plain int: each DR entry, determinant minor and
bracket expansion lies in Z[...], and rational forms are cleared to
integer forms once where binforms takes them in.  All values are
immutable after construction.  The sum and product loops over term dicts,
_sum and _product, are also the arithmetic of the Laurent layer's
exponent-row ring.  binforms' expansion by minors reads and builds term
dicts but multiplies on exponents packed into ints, with its own loop.
"""

from __future__ import annotations

import math
# the C core of heapq: importing heapq itself also loads its pure-Python
# module, about 0.15 MiB more peak RSS for three functions
from _heapq import heapify, heappop, heappush
from operator import add, neg, sub
from typing import Iterable, Mapping, Sequence

from .rationals import DualScalar, NotDivisibleError, parse_rational


class MissingVariableError(KeyError):
    """Raised when an evaluation point omits a variable."""


def _coeff(x) -> int:
    """A coefficient as a plain int; anything but an int is refused."""
    if x.__class__ is int:
        return x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an integer coefficient: {x!r}")


def _quotient(a: int, b: int) -> int:
    """The exact integer quotient a / b, or NotDivisibleError."""
    q, r = divmod(a, b)
    if r:
        raise NotDivisibleError(f"{a} not divisible by {b}")
    return q


class MultiPoly:
    """Immutable sparse polynomial with int coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, object]):
        vs = tuple(variables)
        if list(vs) != sorted(vs):
            raise ValueError("variable namespace must be sorted")
        clean = {}
        for exps, c in terms.items():
            c = _coeff(c)
            if len(exps) != len(vs):
                raise ValueError("exponent vector does not match namespace")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in polynomial term")
            if c:
                clean[tuple(exps)] = c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def constant(cls, c) -> "MultiPoly":
        c = _coeff(c)
        return cls((), {(): c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): 1})

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls((), {})

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if other.__class__ is not MultiPoly:
            if not isinstance(other, int):
                return NotImplemented
            c = int(other)
            return self.terms == ({(0,) * len(self.variables): c} if c else {})
        a, b = ((self, other) if other.variables == self.variables
                else align_all((self, other)))
        return a.terms == b.terms

    def __hash__(self):
        p = self._trim()
        return hash((p.variables, frozenset(p.terms.items())))

    def _trim(self) -> "MultiPoly":
        """Drop variables that occur in no term (canonical for eq/hash)."""
        used = [i for i, v in enumerate(self.variables)
                if any(e[i] for e in self.terms)]
        if len(used) == len(self.variables):
            return self
        vs = tuple(self.variables[i] for i in used)
        terms = {tuple(e[i] for i in used): c for e, c in self.terms.items()}
        return _make(vs, terms)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def _combine(self, other, negate: bool):
        """self + other, or self - other when negate is set."""
        if other.__class__ is MultiPoly:
            a, b = ((self, other) if other.variables == self.variables
                    else align_all((self, other)))
            pairs = b.terms.items()
        elif isinstance(other, int):
            # a constant is the term at the zero exponent of self's namespace
            a = self
            pairs = (((0,) * len(self.variables), int(other)),)
        else:
            return NotImplemented
        return _make(a.variables, _sum(a.terms, pairs, negate))

    def __mul__(self, other):
        if other.__class__ is not MultiPoly:
            if not isinstance(other, int):
                return NotImplemented
            c = int(other)
            return _make(self.variables,
                         {e: c * v for e, v in self.terms.items()} if c else {})
        a, b = ((self, other) if other.variables == self.variables
                else align_all((self, other)))
        return _make(a.variables, _product(a.terms, b.terms))

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
            if not q:
                raise ZeroDivisionError("division by zero")
            return _make(self.variables, {
                e: _quotient(c, q) for e, c in self.terms.items()})
        if q.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        a, b = ((self, q) if q.variables == self.variables
                else align_all((self, q)))
        if len(b.terms) == 1:
            ((e_q, c_q),) = b.terms.items()
            quo = {tuple(map(sub, e, e_q)): _quotient(c, c_q)
                   for e, c in a.terms.items()}
            if quo and any(e_q) and min(map(min, quo)) < 0:
                raise NotDivisibleError("no exact quotient")
            return _make(a.variables, quo)
        # Long division by lex-leading terms.  The remainder is keyed by
        # negated exponents, so the heap's smallest key is its lex-leading
        # term.  Every key pushed lies below the term being divided out, so
        # each key enters the heap once while it is live; a popped key that
        # has since cancelled is skipped.
        lt_q = max(b.terms)
        c_q = b.terms[lt_q]
        neg_lt_q = tuple(map(neg, lt_q))
        q_rest = [(tuple(map(neg, e)), c) for e, c in b.terms.items()
                  if e != lt_q]
        rem = {tuple(map(neg, e)): c for e, c in a.terms.items()}
        get = rem.get
        heap = list(rem)
        heapify(heap)
        quo: dict = {}
        while heap:
            key = heappop(heap)
            c_r = rem.pop(key, None)  # the leading term cancels exactly
            if c_r is None:
                continue
            diff = tuple(map(sub, neg_lt_q, key))
            if diff and min(diff) < 0:
                raise NotDivisibleError("no exact quotient")
            c = _quotient(c_r, c_q)
            quo[diff] = c
            for e, cq in q_rest:
                tgt = tuple(map(sub, e, diff))
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
        return _make(a.variables, quo)

    def derivative(self, var: str) -> "MultiPoly":
        if var not in self.variables:
            return _make(self.variables, {})
        i = self.variables.index(var)
        # lowering the exponent of var is one-to-one on the terms it keeps
        out = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
               for e, c in self.terms.items() if e[i]}
        return _make(self.variables, out)

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, point: Mapping[str, object]):
        """Exact value at a point; values may be ints or rationals."""
        vals = []
        for v in self.variables:
            if v not in point:
                raise MissingVariableError(v)
            vals.append(point[v])
        acc = 0
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
        recs = [{"coefficient": str(c),
                 "exponents": list(e)}
                for e, c in sorted(p.terms.items())]
        return {"variables": list(p.variables), "terms": recs}

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        """Inverse of to_json; a non-integral "p/q" raises ValueError."""
        terms = {}
        for rec in data["terms"]:
            c = parse_rational(rec["coefficient"])
            if c.denominator != 1:
                raise ValueError(f"not an integer coefficient: {c}")
            terms[tuple(rec["exponents"])] = c.numerator
        return cls(list(data["variables"]), terms)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.variables, e) if k)
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)

    __repr__ = __str__


_new = object.__new__
_set_variables = MultiPoly.variables.__set__
_set_terms = MultiPoly.terms.__set__


def _make(variables: tuple, terms: dict) -> MultiPoly:
    """Constructor for results of arithmetic, which trusts its inputs: a
    sorted namespace, non-negative exponent tuples of its length and nonzero
    int coefficients.  Skips the checks of __init__ and sets the slots
    through their descriptors."""
    p = _new(MultiPoly)
    _set_variables(p, variables)
    _set_terms(p, terms)
    return p


# The two term-dict kernels, shared with the Laurent row ring: a term dict
# maps exponent tuples over one set of columns to nonzero coefficients.

def _sum(a: dict, pairs, negate: bool = False) -> dict:
    """The terms of a plus the (exponent, coeff) pairs, or minus them when
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
    """The product of two term dicts over the same columns, neither of
    which holds a zero coefficient, as a new dict without zero
    coefficients."""
    if len(a) == 1 or len(b) == 1:
        # a monomial times p: each term moves to a distinct exponent and,
        # with no zero coefficient in either input, none vanishes
        if len(b) != 1:
            a, b = b, a
        ((e2, c2),) = b.items()
        return {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in a.items()}
    out: dict = {}
    get = out.get
    b_items = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in b_items:
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def align_all(values: Sequence) -> list:
    """The values with every MultiPoly among them remapped onto the sorted
    union of their namespaces; other values are kept as they are.  A long
    computation lifts its inputs once, so that its arithmetic never meets
    two different namespaces."""
    names = set()
    for v in values:
        if v.__class__ is MultiPoly:
            names.update(v.variables)
    vs = tuple(sorted(names))
    return [_remap(v, vs) if v.__class__ is MultiPoly else v for v in values]


def _remap(p: MultiPoly, vs: tuple) -> MultiPoly:
    if p.variables == vs:
        return p
    idx = [vs.index(v) for v in p.variables]
    terms = {}
    for e, c in p.terms.items():
        ne = [0] * len(vs)
        for i, k in zip(idx, e):
            ne[i] = k
        terms[tuple(ne)] = c
    return _make(vs, terms)


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
    ints by divmod, MultiPoly and DualScalar by their own exact_div, an int
    dividend first lifted into the divisor's ring.  NotDivisibleError when
    b does not divide a; TypeError for any other kind (a rational too)."""
    if isinstance(a, int):
        if isinstance(b, int):
            q, r = divmod(a, b)
            if r:
                raise NotDivisibleError(f"{a} not divisible by {b}")
            return q
        if isinstance(b, MultiPoly):
            a = MultiPoly.constant(a)
        elif isinstance(b, DualScalar):
            a = DualScalar(a)
    if not isinstance(a, (MultiPoly, DualScalar)):
        raise TypeError(f"no exact division of {a!r} by {b!r}")
    return a.exact_div(b)
