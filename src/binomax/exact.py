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


def check_natural(value: int, name: str = "n", minimum: int = 0) -> int:
    """Validate an integer argument of at least ``minimum`` (0 or 1) and return it.

    ``bool`` is rejected although it subclasses ``int``: ``True`` is not a count.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "a positive integer" if minimum else "a non-negative integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def factorial(n: int) -> int:
    """n! exactly, with 0! = 1."""
    return math.factorial(check_natural(n, "n"))
