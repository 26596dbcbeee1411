"""Exact scalar types: rational parsing/formatting and dual numbers.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  ``DualScalar`` adjoins a square-zero nilpotent for exact
directional derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """value + derivative*eps with eps**2 = 0."""

    value: Fraction
    derivative: Fraction = Fraction(0)

    @staticmethod
    def lift(x) -> "DualScalar":
        if isinstance(x, DualScalar):
            return x
        return DualScalar(Fraction(x))

    @staticmethod
    def seed(x, rate=1) -> "DualScalar":
        """A dual number tracking d/dt at t=0 of x + rate*t."""
        return DualScalar(Fraction(x), Fraction(rate))

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

    def __truediv__(self, other):
        o = DualScalar.lift(other)
        if o.value == 0:
            raise ZeroDivisionError("dual division by a nilpotent")
        v = self.value / o.value
        return DualScalar(v, (self.derivative - v * o.derivative) / o.value)

    def __rtruediv__(self, other):
        return DualScalar.lift(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("dual powers need a non-negative integer exponent")
        out = DualScalar(Fraction(1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = DualScalar.lift(other)
        return self.value == o.value and self.derivative == o.derivative

    def __hash__(self):
        return hash((self.value, self.derivative))

    def __bool__(self):
        return bool(self.value) or bool(self.derivative)
