"""Truncated Taylor (jet) arithmetic over exact rationals.

A jet stores the coefficients (h(s), h'(s), h''(s)/2!, ..., h^(K)(s)/K!)
of a function h expanded at a rational point s, so coefficient i is
h^(i)(s)/i!.  Sums, differences, Cauchy products and quotients of jets
then propagate exact derivatives through rational-function formulas
without any symbolic expression trees: all we ever need are derivative
values at a point, and a jet of order K delivers them with O(K^2)
multiplications per operation.

Coefficients are ``int`` numerators over one shared positive denominator,
not kept in lowest terms: addition cross-multiplies after one gcd of the
denominators, multiplication and the fraction-free division (Bareiss, BIT
1968) stay on integers, and ``coeffs`` normalises once, when first read.

Jets are immutable.  A constant jet may carry ``base_point=None``
(point-agnostic); it combines with any jet of the same order, and the
result inherits the concrete expansion point.

For sums of many jets with integer weights, :class:`JetBlock` puts a list
of jets on one common denominator once, after which each weighted sum is
one integer dot product per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm
from operator import mul
from typing import Sequence

from .errors import DivisionByZeroJet, MixedJets, OrderExceeded
from .exact import Rational, check_natural

_Scalar = (int, Fraction)


class Jet:
    """Truncated Taylor expansion at ``base_point``; ``coeffs[i] = h^(i)/i!``."""

    __slots__ = ("_point", "_nums", "_den", "_coeffs")

    def __init__(self, base_point: Rational | None, coeffs: tuple[Rational, ...]) -> None:
        coeffs = tuple(map(Fraction, coeffs))
        if len(coeffs) < 1:
            raise ValueError("a jet needs at least the order-0 coefficient")
        den = lcm(*(c.denominator for c in coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self._point, self._nums, self._den, self._coeffs = base_point, nums, den, coeffs

    @classmethod
    def _over(cls, point: Rational | None, nums: tuple[int, ...], den: int) -> Jet:
        """The jet with coefficients nums[i]/den, for den > 0."""
        jet = object.__new__(cls)
        jet._point, jet._nums, jet._den, jet._coeffs = point, nums, den, None
        return jet

    base_point = property(lambda self: self._point, doc="The expansion point, or None.")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(a, self._den) for a in self._nums)
        return self._coeffs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._point, self.coeffs) == (other._point, other.coeffs)

    def __hash__(self) -> int:
        return hash((self._point, self.coeffs))

    def __repr__(self) -> str:
        return f"Jet(base_point={self._point!r}, coeffs={self.coeffs!r})"

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def value(self) -> Rational:
        return self.coeffs[0]

    def derivative(self, k: int) -> Rational:
        """The exact k-th derivative at the expansion point: k! * coeffs[k]."""
        if k < 0 or k > self.order:
            raise OrderExceeded(f"derivative order {k} beyond jet order {self.order}")
        return factorial(k) * self.coeffs[k]

    def _merge_point(self, other: Jet) -> Rational | None:
        if len(self._nums) != len(other._nums):
            raise MixedJets(f"jet orders differ: {self.order} vs {other.order}")
        return _merge_points(self._point, other._point)

    def _coerce(self, other: object) -> Jet | None:
        if isinstance(other, Jet):
            return other
        if isinstance(other, _Scalar):
            return jet_constant(other, self.order)
        return None

    def __add__(self, other: object) -> Jet:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        point = self._merge_point(rhs)
        a, b, den = self._nums, rhs._nums, self._den
        if rhs._den != den:  # bring both over lcm(den, rhs._den)
            g = gcd(den, rhs._den)
            scale_a, scale_b = rhs._den // g, den // g
            a, b, den = [x * scale_a for x in a], [y * scale_b for y in b], den * scale_a
        return Jet._over(point, tuple(x + y for x, y in zip(a, b)), den)

    __radd__ = __add__

    def __sub__(self, other: object) -> Jet:
        return self + -other

    def __rsub__(self, other: object) -> Jet:
        return -self + other

    def __neg__(self) -> Jet:
        return Jet._over(self._point, tuple(-a for a in self._nums), self._den)

    def __mul__(self, other: object) -> Jet:
        if isinstance(other, _Scalar):
            nums = tuple(a * other.numerator for a in self._nums)
            return Jet._over(self._point, nums, self._den * other.denominator)
        if not isinstance(other, Jet):
            return NotImplemented
        point = self._merge_point(other)
        a, b = self._nums, other._nums
        out = tuple(sum(a[j] * b[i - j] for j in range(i + 1) if a[j] and b[i - j])
                    for i in range(len(a)))
        return Jet._over(point, out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> Jet:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        point = self._merge_point(rhs)
        a, b, b0 = self._nums, rhs._nums, rhs._nums[0]
        if b0 == 0:
            raise DivisionByZeroJet("divisor jet has zero value coefficient")
        # Solve a = q*b fraction-free (order K): R_i = b0^(i+1) q_i is the integer
        # a_i b0^i - sum_{j>=1} b_j R_{i-j} b0^(j-1), and q_i = R_i b0^(K-i) / b0^(K+1).
        powers = [b0 ** i for i in range(len(a))]
        r: list[int] = []
        for i in range(len(a)):
            r.append(a[i] * powers[i] - sum(b[j] * r[i - j] * powers[j - 1]
                                            for j in range(1, i + 1) if b[j]))
        # (a/da) / (b/db) = (a/b) * (db/da), with the sign moved into the numerators.
        den = powers[-1] * b0 * self._den
        scale = rhs._den if den > 0 else -rhs._den
        nums = tuple(x * powers[-1 - i] * scale for i, x in enumerate(r))
        return Jet._over(point, nums, abs(den))

    def __rtruediv__(self, other: object) -> Jet:
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else rhs.__truediv__(self)

    def taylor_sums(self, h: Rational) -> tuple[list[int], int]:
        """The Taylor polynomials of every degree d = 0..order at displacement h,
        sum_{i<=d} coeffs[i] h^i, as integer numerators over one positive
        denominator (not in lowest terms): prefix sums of integers, no gcd."""
        a, b = Fraction(h).as_integer_ratio()
        k = len(self._nums) - 1
        terms = (x * a ** i * b ** (k - i) for i, x in enumerate(self._nums))
        return list(accumulate(terms)), self._den * b ** k


def _merge_points(point: Rational | None, other: Rational | None) -> Rational | None:
    """The expansion point of a combination: None defers to the other point."""
    if point is None or point is other:
        return other
    if other is not None and point != other:
        raise MixedJets(f"jet base points differ: {point} vs {other}")
    return point


class JetBlock:
    """Jets of one order on one common denominator, for integer-weighted sums.

    ``weighted_sum(cs)`` equals ``sum(c * jet for c, jet in zip(cs, jets))``
    with ``+``'s rules on orders and points, but each coefficient is one
    integer dot product over the block.
    """

    __slots__ = ("_point", "_den", "_columns")

    def __init__(self, jets: Sequence[Jet]) -> None:
        if not jets:
            raise ValueError("a jet block needs at least one jet")
        point, size = None, len(jets[0]._nums)
        for jet in jets:
            if len(jet._nums) != size:
                raise MixedJets(f"jet orders differ: {size - 1} vs {jet.order}")
            point = _merge_points(point, jet._point)
        den = lcm(*(jet._den for jet in jets))
        scales = [den // jet._den for jet in jets]
        self._point, self._den = point, den
        # Column i holds coefficient i of every jet, over den.
        self._columns = [list(map(mul, (jet._nums[i] for jet in jets), scales)) for i in range(size)]

    def weighted_sum(self, weights: Sequence[int]) -> Jet:
        """sum_k weights[k] * jets[k] over the first len(weights) jets of the block."""
        size = len(self._columns[0])
        if len(weights) > size:
            raise ValueError(f"{len(weights)} weights for a block of {size} jets")
        return Jet._over(self._point, tuple(sum(map(mul, weights, col)) for col in self._columns),
                         self._den)


def jet_constant(c: Rational, order: int, at: Rational | None = None) -> Jet:
    """Jet of the constant function c: all derivative coefficients zero."""
    check_natural(order, "order")
    c = c if isinstance(c, _Scalar) else Fraction(c)
    point = Fraction(at) if at is not None else None
    return Jet._over(point, (c.numerator,) + (0,) * order, c.denominator)


def jet_variable(s: Rational, order: int) -> Jet:
    """Jet of the identity function at s: value s, first derivative 1."""
    check_natural(order, "order")
    s = Fraction(s)
    return Jet._over(s, ((s.numerator, s.denominator) + (0,) * order)[: order + 1], s.denominator)
