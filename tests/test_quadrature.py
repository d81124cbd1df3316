import math
from fractions import Fraction

import pytest

from binomax.errors import NonPositiveS, NRequired, ToleranceNotMet
from binomax.identities import eval_basic_rhs
from binomax.quadrature import (
    TOLERANCE_FLOOR,
    adaptive_simpson,
    laplace_via_cdf_quadrature,
    laplace_via_density_quadrature,
)


class TestAdaptiveSimpson:
    def test_polynomial_exact_for_simpson(self):
        # Simpson integrates cubics exactly
        r = adaptive_simpson(lambda x: x ** 3 - 2 * x, 0.0, 2.0, 1e-12)
        assert abs(r.value - (4.0 - 4.0)) < 1e-12

    def test_known_integrals(self):
        r = adaptive_simpson(math.sin, 0.0, math.pi, 1e-11)
        assert abs(r.value - 2.0) <= 1e-9
        assert r.estimated_error <= 1e-11
        r2 = adaptive_simpson(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, 1e-11)
        assert abs(r2.value - math.pi / 4) <= 1e-9

    def test_empty_interval(self):
        r = adaptive_simpson(math.exp, 1.5, 1.5, 1e-10)
        assert r.value == 0.0 and r.estimated_error == 0.0

    def test_result_invariants(self):
        r = adaptive_simpson(math.exp, 0.0, 1.0, 1e-10)
        assert r.evaluations >= 1
        assert r.estimated_error >= 0.0

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ToleranceNotMet):
            adaptive_simpson(lambda x: math.sqrt(abs(x - 1 / math.pi)), 0.0, 1.0,
                             1e-13, max_depth=3)


class TestCdfRoute:
    def test_degenerate_max_of_zero(self):
        r = laplace_via_cdf_quadrature(1.0, 0, 1e-10)
        assert abs(r.value - 1.0) <= 1e-10

    @pytest.mark.parametrize("n,expected", [(1, 0.5), (2, 1 / 3)])
    def test_hand_values(self, n, expected):
        r = laplace_via_cdf_quadrature(1.0, n, 1e-10)
        assert abs(r.value - expected) <= 1e-9

    def test_error_estimate_within_contract(self):
        r = laplace_via_cdf_quadrature(2.0, 5, 1e-10)
        assert r.estimated_error <= 1e-10

    def test_preconditions(self):
        with pytest.raises(NonPositiveS):
            laplace_via_cdf_quadrature(0.0, 1, 1e-10)
        with pytest.raises(ValueError):
            laplace_via_cdf_quadrature(1.0, 1, 1e-14)
        assert TOLERANCE_FLOOR == 1e-13

    @pytest.mark.parametrize("tol", [1.0, 10.0, 1e300, math.inf, math.nan])
    def test_tolerance_of_one_or_more_rejected(self, tol):
        # at tol >= 2 the cutoff ln(2/tol)/s would be <= 0
        for route in (laplace_via_cdf_quadrature, laplace_via_density_quadrature):
            with pytest.raises(ValueError, match="tol must be in"):
                route(1.0, 2, tol)


class TestDensityRoute:
    @pytest.mark.parametrize("s,n,expected", [
        (1.0, 1, 0.5),      # B(2,1) = 1/2
        (2.0, 3, 0.1),
        (1.0, 2, 1 / 3),
    ])
    def test_hand_values(self, s, n, expected):
        r = laplace_via_density_quadrature(s, n, 1e-10)
        assert abs(r.value - expected) <= 1e-9

    def test_n_zero_rejected(self):
        with pytest.raises(NRequired):
            laplace_via_density_quadrature(1.0, 0, 1e-10)

    def test_preconditions(self):
        with pytest.raises(NonPositiveS):
            laplace_via_density_quadrature(-1.0, 1, 1e-10)
        with pytest.raises(ValueError):
            laplace_via_density_quadrature(1.0, 1, 0.0)


class TestAgainstExactTransform:
    def test_both_routes_match_exact_reduced_grid(self):
        tol = 1e-10
        for s in (0.5, 2.0):
            for n in range(1, 11):
                exact = float(eval_basic_rhs(Fraction(s), n))
                cdf = laplace_via_cdf_quadrature(s, n, tol)
                dens = laplace_via_density_quadrature(s, n, tol)
                assert abs(cdf.value - exact) <= 10 * tol
                assert abs(dens.value - exact) <= 10 * tol
                assert abs(cdf.value - dens.value) <= 10 * tol

    def test_transform_decreases_in_s(self):
        for n in (1, 4):
            values = [laplace_via_cdf_quadrature(s, n, 1e-10).value
                      for s in (0.5, 1.0, 2.0, 10.0)]
            assert all(a > b for a, b in zip(values, values[1:]))
