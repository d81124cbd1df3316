import math
from fractions import Fraction

import pytest

from binomax import quadrature
from binomax.errors import NonPositiveS, NRequired, ToleranceNotMet
from binomax.identities import eval_basic_rhs
from binomax.quadrature import (
    _MAX_DEPTH,
    _MIN_DEPTH,
    TOLERANCE_FLOOR,
    QuadratureResult,
    adaptive_simpson,
    laplace_via_cdf_quadrature,
    laplace_via_density_quadrature,
)


def oracle_simpson(f, a, b, tol, max_depth=_MAX_DEPTH):
    """The recursive adaptive Simpson rule with a counting closure and a
    ``simpson`` helper, as written before the lean rewrite: the oracle that
    ``adaptive_simpson`` must equal bit for bit."""
    count = 0

    def ev(x):
        nonlocal count
        count += 1
        return f(x)

    def simpson(lo, flo, fmid, hi, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def refine(lo, flo, mid, fmid, hi, fhi, whole, budget, depth):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = ev(lm)
        frm = ev(rm)
        left = simpson(lo, flo, flm, mid, fmid)
        right = simpson(mid, fmid, frm, hi, fhi)
        err = (left + right - whole) / 15.0
        if depth >= _MIN_DEPTH and abs(err) <= budget:
            return left + right + err, abs(err)
        if depth >= max_depth:
            raise ToleranceNotMet(
                f"interval [{lo:g}, {hi:g}] still above tolerance after "
                f"{max_depth} subdivisions"
            )
        lv, le = refine(lo, flo, lm, flm, mid, fmid, left, budget / 2.0, depth + 1)
        rv, re = refine(mid, fmid, rm, frm, hi, fhi, right, budget / 2.0, depth + 1)
        return lv + rv, le + re

    if a == b:
        ev(a)
        return QuadratureResult(0.0, 0.0, count)
    fa = ev(a)
    fb = ev(b)
    mid = 0.5 * (a + b)
    fmid = ev(mid)
    whole = simpson(a, fa, fmid, b, fb)
    value, err = refine(a, fa, mid, fmid, b, fb, whole, float(tol), 0)
    return QuadratureResult(value, err, count)


# The two routes' integrands as written before the lean rewrite.
def cdf_integrand(s, n):
    return lambda t: s * (1.0 - math.exp(-t)) ** n * math.exp(-s * t)


def density_integrand(s, n):
    return lambda w: n * (1.0 - w) ** s * w ** (n - 1)


def bits(result):
    return result.value.hex(), result.estimated_error.hex(), result.evaluations


@pytest.fixture
def simpson_calls(monkeypatch):
    """Record each route's (a, b, tol) and result from ``adaptive_simpson``."""
    calls = []

    def spy(f, a, b, tol):
        call = {"args": (a, b, tol)}
        calls.append(call)  # before the call, so a raising call is recorded too
        call["result"] = adaptive_simpson(f, a, b, tol)
        return call["result"]

    monkeypatch.setattr(quadrature, "adaptive_simpson", spy)
    return calls


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

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 3)
        with pytest.raises(ToleranceNotMet):
            adaptive_simpson(lambda x: math.sqrt(abs(x - 1 / math.pi)), 0.0, 1.0, 1e-13)


class TestAgainstTheRecursiveOracle:
    @pytest.mark.parametrize("route,integrand", [
        (laplace_via_cdf_quadrature, cdf_integrand),
        (laplace_via_density_quadrature, density_integrand),
    ], ids=["cdf", "density"])
    @pytest.mark.parametrize("n", [1, 2, 7, 120, 1000, 5000])
    def test_same_value_error_and_evaluations(self, simpson_calls, route, integrand, n):
        for s in (0.5, 1.0, 2.0, 10.0, 1.557):
            route(s, n, 1e-12)
            call = simpson_calls.pop()
            expected = oracle_simpson(integrand(s, n), *call["args"])
            assert bits(call["result"]) == bits(expected)

    def test_empty_interval(self):
        seen = []
        result = adaptive_simpson(seen.append, 1.5, 1.5, 1e-10)
        expected = oracle_simpson(math.exp, 1.5, 1.5, 1e-10)
        assert bits(result) == bits(expected) == ("0x0.0p+0", "0x0.0p+0", 1)
        assert seen == [1.5]

    def test_same_tolerance_not_met_message(self, simpson_calls):
        with pytest.raises(ToleranceNotMet) as ours:
            laplace_via_cdf_quadrature(1e-20, 3, 1e-10)
        with pytest.raises(ToleranceNotMet) as oracle:
            oracle_simpson(cdf_integrand(1e-20, 3), *simpson_calls.pop()["args"])
        assert str(ours.value) == str(oracle.value) == (
            "interval [0, 2057.3] still above tolerance after 60 subdivisions")


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
