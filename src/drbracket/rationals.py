"""Exact scalar types: rational parsing/formatting and dual numbers.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator), met only where binforms takes rational forms in (and
clears them to integer forms) and gives its unscaled results out.
``DualScalar`` adjoins a square-zero nilpotent to the integers for exact
directional derivatives of integer polynomials.  Its arithmetic is Z-linear
in the derivative, so the Jacobian check packs its 2n directions into one
integer derivative, one base-2**K digit each, and runs one series per point.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class NotDivisibleError(ArithmeticError):
    """Raised when an exact quotient does not exist."""


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" (optional sign, ASCII digits, surrounding
    whitespace ignored) into a Fraction.

    Any other form, exponent notation included, raises ValueError, as
    does a number past the interpreter's digit limit for int(str).
    """
    m = _RATIONAL.fullmatch(s.strip())
    if m is None:
        raise ValueError(f"not a rational of the form p or p/q: {s!r}")
    num, den = m.groups()
    return Fraction(int(num), int(den) if den else 1)


def format_rational(q: Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class DualScalar:
    """value + derivative*eps with eps**2 = 0, over the integers.

    A plain ``__slots__`` class: arithmetic between two dual numbers reads
    the operands directly, and only ints go through ``lift``.
    """

    __slots__ = ("value", "derivative")

    def __init__(self, value: int, derivative: int = 0):
        self.value = value
        self.derivative = derivative

    def __repr__(self):
        return (f"DualScalar(value={self.value!r}, "
                f"derivative={self.derivative!r})")

    @staticmethod
    def lift(x) -> "DualScalar":
        if isinstance(x, DualScalar):
            return x
        if not isinstance(x, int):
            raise TypeError(f"not an integer dual number: {x!r}")
        return DualScalar(x)

    def __add__(self, other):
        if not isinstance(other, DualScalar):
            other = DualScalar.lift(other)
        return DualScalar(self.value + other.value,
                          self.derivative + other.derivative)

    __radd__ = __add__

    def __neg__(self):
        return DualScalar(-self.value, -self.derivative)

    def __sub__(self, other):
        if not isinstance(other, DualScalar):
            other = DualScalar.lift(other)
        return DualScalar(self.value - other.value,
                          self.derivative - other.derivative)

    def __rsub__(self, other):
        other = DualScalar.lift(other)
        return DualScalar(other.value - self.value,
                          other.derivative - self.derivative)

    def __mul__(self, other):
        if not isinstance(other, DualScalar):
            other = DualScalar.lift(other)
        return DualScalar(
            self.value * other.value,
            self.value * other.derivative + self.derivative * other.value,
        )

    __rmul__ = __mul__

    def exact_div(self, q) -> "DualScalar":
        """The r with self == q*r, or NotDivisibleError when r would leave
        the integers: v = a // b and d = (a' - v*b') // b, both exact."""
        o = q if isinstance(q, DualScalar) else DualScalar.lift(q)
        v, rem = divmod(self.value, o.value)
        d, drem = divmod(self.derivative - v * o.derivative, o.value)
        if rem or drem:
            raise NotDivisibleError(f"{self} not divisible by {o}")
        return DualScalar(v, d)

    def __eq__(self, other):
        if isinstance(other, DualScalar):
            return (self.value == other.value
                    and self.derivative == other.derivative)
        if isinstance(other, int):
            return self.value == other and not self.derivative
        return NotImplemented

    def __hash__(self):
        # equal to an int v exactly when the derivative is 0, so it then
        # hashes as v does
        if not self.derivative:
            return hash(self.value)
        return hash((self.value, self.derivative))
