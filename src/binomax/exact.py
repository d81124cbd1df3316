"""Exact rational arithmetic and the combinatorial primitives built on it.

``Rational`` is the universal exact value type of the package.  It is the
standard-library ``fractions.Fraction``, which already guarantees the
canonical form we rely on everywhere: denominator > 0 and
gcd(|numerator|, denominator) = 1 after every operation, so equality of
values is equality of canonical forms.  Values are immutable and safe to
share between threads.

String I/O is deliberately stricter than ``Fraction``'s own parser: only
``"p/q"`` and plain integer strings are accepted, never decimals or
exponents, so nothing inexact can leak into an exact computation.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ZeroFactor

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or an integer string into an exact Rational.

    Decimal or scientific notation is rejected: such inputs are not exact
    and must not enter the exact pipeline.  Round-trips losslessly with
    :func:`format_rational`.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(
            f"not an exact rational literal: {text!r} (use 'p/q' or an integer)"
        )
    num, _, den = text.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def format_rational(value: Fraction) -> str:
    """Render a Rational canonically: ``"-3/7"``, or ``"5"`` when integral."""
    return str(Fraction(value))


def check_natural(value: int, name: str = "n") -> int:
    """Validate a non-negative integer argument and return it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def check_positive(value: int, name: str = "m") -> int:
    """Validate a positive integer argument (a gamma shape) and return it."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), exactly; 0 when k > n.

    Multiplicative formula with exact intermediate division, so C(n, k)
    never routes through full factorials.
    """
    check_natural(n, "n")
    check_natural(k, "k")
    if k > n:
        return 0
    k = min(k, n - k)
    result = 1
    for i in range(1, k + 1):
        result = result * (n - i + 1) // i
    return result


def factorial(n: int) -> int:
    """n! exactly, with 0! = 1."""
    return math.factorial(check_natural(n, "n"))


def rising_product(s: Fraction, n: int) -> Fraction:
    """The product (s+1)(s+2)...(s+n); 1 for n = 0 (empty product).

    Raises :class:`ZeroFactor` if any factor vanishes, i.e. s is one of
    the poles -1, ..., -n.
    """
    check_natural(n, "n")
    s = Fraction(s)
    result = Fraction(1)
    for k in range(1, n + 1):
        factor = s + k
        if factor == 0:
            raise ZeroFactor(f"factor s + {k} is zero at s = {format_rational(s)}")
        result *= factor
    return result
