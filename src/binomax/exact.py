"""Exact rational arithmetic: the value type, its string I/O and the argument checks.

The universal exact value type of the package is the standard-library
``fractions.Fraction``, which already guarantees the canonical form we
rely on everywhere: denominator > 0 and gcd(|numerator|, denominator) = 1
after every operation, so equality of values is equality of canonical
forms.  Values are immutable and safe to share between threads.

String I/O is deliberately stricter than ``Fraction``'s own parser: only
``"p/q"`` and plain integer strings are accepted, never decimals or
exponents, so nothing inexact can leak into an exact computation.
"""

from __future__ import annotations

import math
import numbers
import re
from decimal import Decimal
from fractions import Fraction

from .errors import NonPositiveS

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or an integer string into an exact Fraction.

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
    # decimal converts integers of any size; int(str) stops at 4300 digits.
    num, den = int(Decimal(num)), int(Decimal(den or "1"))
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction canonically: ``"-3/7"``, or ``"5"`` when integral."""
    # decimal renders integers of any size; str(int) stops at 4300 digits.
    num, den = (str(Decimal(part)) for part in Fraction(value).as_integer_ratio())
    return num if den == "1" else f"{num}/{den}"


def check_natural(value: int, name: str = "n", minimum: int = 0) -> int:
    """Validate an integer argument of at least ``minimum`` (0 or 1) and return it.

    ``bool`` is rejected although it subclasses ``int``: ``True`` is not a count.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "a positive integer" if minimum else "a non-negative integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def check_positive(value, name: str = "s"):
    """Validate a finite value > 0 (s or a rate) and return it unchanged;
    exact values (int, Fraction) are finite at any size."""
    exact = isinstance(value, numbers.Rational)
    if not (value > 0 and (exact or math.isfinite(value))):
        shown = format_rational(value) if exact else repr(value)
        raise NonPositiveS(f"{name} must be finite and > 0, got {shown}")
    return value
