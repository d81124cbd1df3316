"""Truncated Taylor (jet) arithmetic over exact rationals.

A jet stores the coefficients (h(s), h'(s), h''(s)/2!, ..., h^(K)(s)/K!)
of a function h expanded at a rational point s, so coefficient i is
h^(i)(s)/i!.  Sums, differences, Cauchy products and quotients of jets
then propagate exact derivatives through rational-function formulas
without any symbolic expression trees: all we ever need are derivative
values at a point, and a jet of order K delivers them with O(K^2)
rational multiplications per operation.

Jets are immutable.  A constant jet may carry ``base_point=None``
(point-agnostic); it combines with any jet of the same order, and the
result inherits the concrete expansion point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZeroJet, MixedJets, OrderExceeded
from .exact import Rational, check_natural, factorial

_Scalar = (int, Fraction)


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor expansion at ``base_point``; ``coeffs[i] = h^(i)/i!``."""

    base_point: Rational | None
    coeffs: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("a jet needs at least the order-0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> Rational:
        return self.coeffs[0]

    def derivative(self, k: int) -> Rational:
        """The exact k-th derivative at the expansion point: k! * coeffs[k]."""
        if k < 0 or k > self.order:
            raise OrderExceeded(f"derivative order {k} beyond jet order {self.order}")
        return factorial(k) * self.coeffs[k]

    def _merge_point(self, other: Jet) -> Rational | None:
        if self.order != other.order:
            raise MixedJets(
                f"jet orders differ: {self.order} vs {other.order}"
            )
        if (
            self.base_point is not None
            and other.base_point is not None
            and self.base_point != other.base_point
        ):
            raise MixedJets(
                f"jet base points differ: {self.base_point} vs {other.base_point}"
            )
        return self.base_point if self.base_point is not None else other.base_point

    def _coerce(self, other: object) -> Jet | None:
        if isinstance(other, Jet):
            return other
        if isinstance(other, _Scalar):
            return jet_constant(Fraction(other), self.order)
        return None

    def __add__(self, other: object) -> Jet:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        point = self._merge_point(rhs)
        return Jet(point, tuple(a + b for a, b in zip(self.coeffs, rhs.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: object) -> Jet:
        return self + -other

    def __rsub__(self, other: object) -> Jet:
        return -self + other

    def __neg__(self) -> Jet:
        return Jet(self.base_point, tuple(-a for a in self.coeffs))

    def __mul__(self, other: object) -> Jet:
        if isinstance(other, _Scalar):
            c = Fraction(other)
            return Jet(self.base_point, tuple(a * c for a in self.coeffs))
        if not isinstance(other, Jet):
            return NotImplemented
        point = self._merge_point(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for i in range(len(a)):
            acc = Fraction(0)
            for j in range(i + 1):
                if a[j] and b[i - j]:
                    acc += a[j] * b[i - j]
            out.append(acc)
        return Jet(point, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> Jet:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        point = self._merge_point(rhs)
        a, b = self.coeffs, rhs.coeffs
        if b[0] == 0:
            raise DivisionByZeroJet("divisor jet has zero value coefficient")
        # Solve a = q*b coefficient by coefficient (Cauchy recurrence).
        q: list[Rational] = [a[0] / b[0]]
        for i in range(1, len(a)):
            acc = a[i]
            for j in range(1, i + 1):
                if b[j]:
                    acc -= b[j] * q[i - j]
            q.append(acc / b[0])
        return Jet(point, tuple(q))

    def __rtruediv__(self, other: object) -> Jet:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs.__truediv__(self)


def jet_constant(c: Rational, order: int, at: Rational | None = None) -> Jet:
    """Jet of the constant function c: all derivative coefficients zero."""
    check_natural(order, "order")
    c = Fraction(c)
    point = Fraction(at) if at is not None else None
    return Jet(point, (c,) + (Fraction(0),) * order)


def jet_variable(s: Rational, order: int) -> Jet:
    """Jet of the identity function at s: value s, first derivative 1."""
    check_natural(order, "order")
    s = Fraction(s)
    if order == 0:
        return Jet(s, (s,))
    return Jet(s, (s, Fraction(1)) + (Fraction(0),) * (order - 1))
