"""Floating-point quadrature of the two Laplace-transform integrals.

The transform E[exp(-s * max of n unit exponentials)] has two integral
representations:

  distribution route:  s * integral_0^inf (1 - e^-t)^n e^-st dt
  density route:       n * integral_0^1  (1 - w)^s w^(n-1) dw
                       (t -> w = 1 - e^-t), equal to n*B(s+1, n)

Both are integrated with an adaptive Simpson rule carrying an explicit
error estimate, and are meant to be cross-checked against the exact
rational value from :mod:`binomax.identities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NRequired, ToleranceNotMet
from .exact import check_natural, check_positive

#: Tolerances below this are rejected: the error estimator itself works in
#: float64 and cannot certify anything tighter.  Tolerances of 1 or more
#: (and non-finite ones) are rejected too: an absolute error of 1 says
#: nothing about a transform value in (0, 1].
TOLERANCE_FLOOR = 1e-13

_MAX_DEPTH = 60
#: Intervals are split at least this many times before any is accepted.
_MIN_DEPTH = 4


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    estimated_error: float
    evaluations: int


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
) -> QuadratureResult:
    """Adaptive Simpson integration of f over [a, b] to absolute tolerance.

    Each subinterval is accepted when the Richardson error estimate
    |S2 - S1|/15 falls under its share of the tolerance (halved per
    split), so accepted-leaf error estimates sum to at most ``tol``.
    No interval is accepted above ``_MIN_DEPTH`` subdivisions: a coarse
    first look can sit entirely off a narrow peak and report a tiny
    error for a wrong value, so the estimator must see at least
    2^_MIN_DEPTH panels first.  Raises :class:`ToleranceNotMet` once an
    interval still fails its tolerance at ``_MAX_DEPTH`` subdivisions.
    """
    if a == b:
        f(a)
        return QuadratureResult(0.0, 0.0, 1)
    max_depth = _MAX_DEPTH
    refines = 0  # each refine evaluates f twice, the first look three times

    def refine(
        lo: float,
        flo: float,
        mid: float,
        fmid: float,
        hi: float,
        fhi: float,
        whole: float,
        budget: float,
        depth: int,
    ) -> tuple[float, float]:
        nonlocal refines
        refines += 1
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        both = left + right
        err = (both - whole) / 15.0
        if depth >= _MIN_DEPTH and abs(err) <= budget:
            return both + err, abs(err)
        if depth >= max_depth:
            raise ToleranceNotMet(
                f"interval [{lo:g}, {hi:g}] still above tolerance after "
                f"{max_depth} subdivisions"
            )
        budget /= 2.0
        depth += 1
        lv, le = refine(lo, flo, lm, flm, mid, fmid, left, budget, depth)
        rv, re = refine(mid, fmid, rm, frm, hi, fhi, right, budget, depth)
        return lv + rv, le + re

    fa = f(a)
    fb = f(b)
    mid = 0.5 * (a + b)
    fmid = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)
    value, err = refine(a, fa, mid, fmid, b, fb, whole, float(tol), 0)
    return QuadratureResult(value, err, 3 + 2 * refines)


def _check_route_args(s: float, n: int, tol: float, density: bool) -> tuple[float, float]:
    """Check that s is finite and > 0, then n >= 0 (>= 1 for the density
    route), then TOLERANCE_FLOOR <= tol < 1; return s and tol as floats."""
    s = check_positive(float(s))
    check_natural(n, "n")
    if density and n == 0:
        raise NRequired("the density route requires n >= 1")
    tol = float(tol)
    if not TOLERANCE_FLOOR <= tol < 1:
        raise ValueError(f"tol must be in [{TOLERANCE_FLOOR:g}, 1), got {tol:g}")
    return s, tol


def laplace_via_cdf_quadrature(s: float, n: int, tol: float) -> QuadratureResult:
    """Transform of the max via the distribution-function integral.

    The infinite domain is truncated at T = ln(2/tol)/s, where the
    remaining tail is bounded by e^(-sT) < tol/2; the finite part is
    integrated to tol/2, so the estimated error stays <= tol.
    """
    s, tol = _check_route_args(s, n, tol, density=False)
    cutoff = math.log(2.0 / tol) / s
    exp = math.exp

    def integrand(t: float) -> float:
        return s * (1.0 - exp(-t)) ** n * exp(-s * t)

    base = adaptive_simpson(integrand, 0.0, cutoff, tol / 2.0)
    tail_bound = math.exp(-s * cutoff)
    return QuadratureResult(
        base.value, base.estimated_error + tail_bound, base.evaluations
    )


def laplace_via_density_quadrature(s: float, n: int, tol: float) -> QuadratureResult:
    """Transform of the max via the density integral, in substituted form.

    Works on n * integral_0^1 (1-w)^s w^(n-1) dw: the substitution trades
    the infinite domain for [0, 1], and for s > 0, n >= 1 the integrand
    is continuous there, including both endpoints.
    """
    s, tol = _check_route_args(s, n, tol, density=True)

    def integrand(w: float) -> float:
        return n * (1.0 - w) ** s * w ** (n - 1)

    return adaptive_simpson(integrand, 0.0, 1.0, tol)
