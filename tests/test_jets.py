import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from binomax.errors import DivisionByZeroJet, MixedJets, OrderExceeded
from binomax.jets import Jet, jet_constant, jet_variable


def reciprocal_shift_jet(s, shift, order):
    """Jet of 1/(s + shift) at s, from the closed-form derivatives:

    d^i/ds^i [1/(s+c)] = (-1)^i i! / (s+c)^(i+1), so coefficient i is
    (-1)^i / (s+c)^(i+1).  Independent oracle for the division recurrence.
    """
    base = Fraction(s) + shift
    return Jet(Fraction(s), tuple((-1) ** i / base ** (i + 1) for i in range(order + 1)))


class TestConstructors:
    def test_constant(self):
        assert jet_constant(3, 2).coeffs == (3, 0, 0)
        assert jet_constant(0, 0).coeffs == (Fraction(0),)
        assert jet_constant(Fraction(-1, 2), 1).coeffs == (Fraction(-1, 2), 0)

    def test_variable(self):
        assert jet_variable(2, 2).coeffs == (2, 1, 0)
        assert jet_variable(2, 0).coeffs == (Fraction(2),)
        assert jet_variable(Fraction(1, 3), 1).coeffs == (Fraction(1, 3), 1)
        assert jet_variable(2, 2).base_point == 2

    @pytest.mark.parametrize("order", [True, 2.0, -1])
    def test_order_must_be_a_natural_number(self, order):
        with pytest.raises(ValueError, match="order must be a non-negative integer"):
            jet_constant(1, order)
        with pytest.raises(ValueError, match="order must be a non-negative integer"):
            jet_variable(2, order)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Jet(None, ())


class TestAlgebra:
    def test_reciprocal_of_s_plus_one(self):
        # 1/(s+1) at s=1: value 1/2, slope -1/4, second Taylor coeff 1/8
        x = jet_variable(1, 2)
        q = jet_constant(1, 2) / (x + jet_constant(1, 2))
        assert q.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))
        assert q == reciprocal_shift_jet(1, 1, 2)

    def test_square_of_variable(self):
        x = jet_variable(2, 2)
        assert (x * x).coeffs == (4, 4, 1)

    def test_multiplicative_identity(self):
        a = Jet(Fraction(3), (Fraction(2, 7), Fraction(-1), Fraction(5, 3)))
        assert a * jet_constant(1, a.order) == a
        assert a * 1 == a

    def test_scalar_coercion(self):
        x = jet_variable(5, 1)
        assert (x + 2).value == 7
        assert (2 + x).value == 7
        assert (1 - x).coeffs == (-4, -1)
        assert (Fraction(1, 2) * x).coeffs == (Fraction(5, 2), Fraction(1, 2))

    def test_rdiv_scalar(self):
        x = jet_variable(1, 2)
        q = 1 / (x + 1)
        assert q == reciprocal_shift_jet(1, 1, 2)

    def test_mixed_orders_rejected(self):
        with pytest.raises(MixedJets):
            jet_variable(1, 2) + jet_variable(1, 3)

    def test_mixed_points_rejected(self):
        with pytest.raises(MixedJets):
            jet_variable(1, 2) * jet_variable(2, 2)

    def test_constant_point_agnostic(self):
        c = jet_constant(5, 2)
        assert (c + jet_variable(9, 2)).base_point == 9

    def test_division_by_zero_value(self):
        with pytest.raises(DivisionByZeroJet):
            jet_variable(1, 1) / jet_constant(0, 1)


class TestDerivative:
    def test_reciprocal_derivatives(self):
        q = 1 / (jet_variable(1, 2) + 1)
        assert q.derivative(0) == Fraction(1, 2)
        assert q.derivative(1) == Fraction(-1, 4)  # -1/(s+1)^2 at s=1
        assert q.derivative(2) == Fraction(1, 4)   # 2/(s+1)^3 at s=1

    def test_order_zero_is_value(self):
        a = Jet(None, (Fraction(9, 4), Fraction(1)))
        assert a.derivative(0) == a.value

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            jet_variable(1, 2).derivative(3)


small_rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
jet_coeffs = st.lists(small_rationals, min_size=3, max_size=3)


class TestProperties:
    @given(jet_coeffs, jet_coeffs)
    def test_product_rule(self, a_coeffs, b_coeffs):
        a = Jet(None, tuple(a_coeffs))
        b = Jet(None, tuple(b_coeffs))
        product = a * b
        assert product.derivative(1) == (
            a.derivative(1) * b.value + a.value * b.derivative(1)
        )

    @given(jet_coeffs, jet_coeffs)
    def test_div_mul_round_trip(self, a_coeffs, b_coeffs):
        a = Jet(None, tuple(a_coeffs))
        b = Jet(None, tuple(b_coeffs))
        if b.value == 0:
            return
        assert (a / b) * b == a


@st.composite
def same_order_jets(draw):
    """Two jets of one order whose base points may be combined."""
    size = draw(st.integers(1, 5))
    coeffs = st.lists(small_rationals, min_size=size, max_size=size)
    point = draw(small_rationals)
    points = draw(st.sampled_from([(point, point), (point, None), (None, point), (None, None)]))
    return Jet(points[0], tuple(draw(coeffs))), Jet(points[1], tuple(draw(coeffs)))


scalars = st.integers(-100, 100) | small_rationals


class TestSubtraction:
    @given(same_order_jets())
    def test_jet_minus_jet(self, pair):
        a, b = pair
        diff = a - b
        assert diff.coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
        assert diff.base_point == (b.base_point if a.base_point is None else a.base_point)

    @given(same_order_jets(), scalars)
    def test_jet_minus_scalar(self, pair, c):
        a, _ = pair
        diff = a - c
        assert diff.coeffs == (a.value - c,) + a.coeffs[1:]
        assert diff.base_point == a.base_point

    @given(same_order_jets(), scalars)
    def test_scalar_minus_jet(self, pair, c):
        a, _ = pair
        diff = c - a
        assert diff.coeffs == (c - a.value,) + tuple(-x for x in a.coeffs[1:])
        assert diff.base_point == a.base_point

    @given(same_order_jets(), st.integers(1, 5))
    def test_mixed_orders_rejected(self, pair, extra):
        a, _ = pair
        b = jet_constant(1, a.order + extra)
        with pytest.raises(MixedJets):
            a - b
        with pytest.raises(MixedJets):
            b - a

    def test_non_numbers_rejected(self):
        x = jet_variable(1, 2)
        with pytest.raises(TypeError):
            x - "1"
        with pytest.raises(TypeError):
            "1" - x
        with pytest.raises(TypeError):
            x - 1.5


class TestProductFormOracle:
    """Jets of prod k/(s+k) must match the logarithmic-derivative form."""

    @pytest.mark.parametrize("s", [Fraction(1, 7), Fraction(1), Fraction(3, 2), Fraction(10)])
    def test_log_derivative_closed_form(self, s):
        for n in range(11):
            x = jet_variable(s, 1)
            g = jet_constant(1, 1, at=s)
            for k in range(1, n + 1):
                g = g * (Fraction(k) / (x + k))
            log_sum = sum((Fraction(1) / (s + j) for j in range(1, n + 1)), Fraction(0))
            assert g.derivative(1) == -g.value * log_sum

    def test_finite_difference_sanity(self):
        # float cross-check only; the exact checks above are authoritative
        def g_float(s, n):
            out = 1.0
            for k in range(1, n + 1):
                out *= k / (s + k)
            return out

        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 5)
            s = Fraction(rng.randint(1, 40), rng.randint(1, 10))
            x = jet_variable(s, 1)
            g = jet_constant(1, 1, at=s)
            for k in range(1, n + 1):
                g = g * (Fraction(k) / (x + k))
            h = 1e-6
            fd = (g_float(float(s) + h, n) - g_float(float(s) - h, n)) / (2 * h)
            exact = float(g.derivative(1))
            assert math.isclose(fd, exact, rel_tol=1e-6)
