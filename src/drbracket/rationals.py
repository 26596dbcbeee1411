"""Exact scalar types: rational parsing/formatting and dual numbers.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  ``DualScalar`` adjoins a square-zero nilpotent to the
integers for exact directional derivatives of integer polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class NotDivisibleError(ArithmeticError):
    """Raised when an exact quotient does not exist."""


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction."""
    return Fraction(s.strip())


def format_rational(q: Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class DualScalar:
    """value + derivative*eps with eps**2 = 0, over the integers."""

    value: int
    derivative: int = 0

    @staticmethod
    def lift(x) -> "DualScalar":
        if isinstance(x, DualScalar):
            return x
        if not isinstance(x, int):
            raise TypeError(f"not an integer dual number: {x!r}")
        return DualScalar(x)

    def __add__(self, other):
        o = DualScalar.lift(other)
        return DualScalar(self.value + o.value, self.derivative + o.derivative)

    __radd__ = __add__

    def __neg__(self):
        return DualScalar(-self.value, -self.derivative)

    def __sub__(self, other):
        return self + (-DualScalar.lift(other))

    def __rsub__(self, other):
        return DualScalar.lift(other) + (-self)

    def __mul__(self, other):
        o = DualScalar.lift(other)
        return DualScalar(
            self.value * o.value,
            self.value * o.derivative + self.derivative * o.value,
        )

    __rmul__ = __mul__

    def exact_div(self, q) -> "DualScalar":
        """The r with self == q*r, or NotDivisibleError when r would leave
        the integers: v = a // b and d = (a' - v*b') // b, both exact."""
        o = DualScalar.lift(q)
        v, rem = divmod(self.value, o.value)
        d, drem = divmod(self.derivative - v * o.derivative, o.value)
        if rem or drem:
            raise NotDivisibleError(f"{self} not divisible by {o}")
        return DualScalar(v, d)

    def __eq__(self, other):
        o = DualScalar.lift(other)
        return self.value == o.value and self.derivative == o.derivative

    def __hash__(self):
        return hash((self.value, self.derivative))
