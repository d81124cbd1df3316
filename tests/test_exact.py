import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from binomax.errors import NonPositiveS
from binomax.exact import (
    check_natural,
    check_positive,
    format_rational,
    parse_rational,
)


rationals = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6)


class TestFieldLaws:
    """Fraction must behave as an exact field under random operands."""

    @given(rationals, rationals, rationals)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(rationals, rationals, rationals)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(rationals)
    def test_inverses(self, a):
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1

    @given(rationals)
    def test_canonical_form_idempotent(self, a):
        again = Fraction(a.numerator, a.denominator)
        assert again.numerator == a.numerator
        assert again.denominator == a.denominator
        assert a.denominator > 0
        assert math.gcd(abs(a.numerator), a.denominator) == 1


class TestStringRoundTrip:
    def test_examples(self):
        assert parse_rational("-3/7") == Fraction(-3, 7)
        assert parse_rational("5") == Fraction(5)
        assert format_rational(Fraction(-3, 7)) == "-3/7"
        assert format_rational(Fraction(5)) == "5"

    @given(rationals)
    def test_round_trip_lossless(self, a):
        assert parse_rational(format_rational(a)) == a

    def test_round_trip_beyond_the_int_str_digit_limit(self):
        # str(int) and int(str) refuse more than 4300 digits by default
        a = Fraction(-(10**10_000 + 7), 3**20_960 + 2)
        text = format_rational(a)
        assert len(text) > 20_000
        assert parse_rational(text) == a

    def test_non_canonical_input_parses_to_canonical(self):
        assert format_rational(parse_rational("4/6")) == "2/3"

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "a/b", "3/0", "", "1/ 2", "1//2", "0x3"])
    def test_rejects_inexact_or_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_check_natural():
    assert check_natural(0) == 0
    assert check_natural(17) == 17
    for bad in (-1, 1.0, True, "3"):
        with pytest.raises(ValueError):
            check_natural(bad)
    assert check_natural(1, "m", 1) == 1
    for bad in (0, True, 2.0):
        with pytest.raises(ValueError, match=f"m must be a positive integer, got {bad!r}"):
            check_natural(bad, "m", 1)


def test_check_positive():
    huge = Fraction(10**400)  # exact, so finite, though beyond float64
    for good in (Fraction(1, 3), 2, 0.5, 5e-324, huge):
        assert check_positive(good) is good
    for bad, shown in ((Fraction(-1, 2), "-1/2"), (0, "0"), (-0.0, "-0.0"),
                       (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(NonPositiveS, match=f"^rate must be finite and > 0, got {shown}$"):
            check_positive(bad, "rate")
