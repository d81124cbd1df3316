"""Floating-point quadrature of the two Laplace-transform integrals.

The transform E[exp(-s * max of n unit exponentials)] has two integral
representations:

  distribution route:  s * integral_0^inf (1 - e^-t)^n e^-st dt
  density route:       n * integral_0^1  (1 - w)^s w^(n-1) dw
                       (t -> w = 1 - e^-t), equal to n*B(s+1, n)

Both are integrated with an adaptive Simpson rule carrying an explicit
error estimate, and are meant to be cross-checked against the exact
rational value from :mod:`binomax.identities`.  Each route integrates a
batch of n at one s together, one subdivision level at a time, and gives
the bits of :func:`adaptive_simpson` on each integrand alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

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
#: Most open intervals a batch refines at one level; an integrand whose
#: intervals would take the next level past it leaves the batch.  On the
#: `numeric` grid (5 s x 123 n, tol 1e-12) the widest integrand holds 640
#: open intervals at one level (cdf, s = 0.5, n = 9) and the widest batch
#: of one s 57 884 (cdf, s = 0.5), which peaks at about 10 MiB; all 615
#: cdf integrands at once would hold 113 536, the density ones 69 902.
_MAX_OPEN = 1 << 16


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
    interval still fails its tolerance at ``_MAX_DEPTH`` subdivisions; a
    negative or NaN ``tol``, or a non-finite ``a`` or ``b``, is refused
    with ValueError before f is called.
    """
    tol = float(tol)
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol:g}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"a and b must be finite, got a = {a:g}, b = {b:g}")
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
            raise _not_met(lo, hi, max_depth)
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
    value, err = refine(a, fa, mid, fmid, b, fb, whole, tol, 0)
    return QuadratureResult(value, err, 3 + 2 * refines)


def _not_met(lo: float, hi: float, max_depth: int) -> ToleranceNotMet:
    return ToleranceNotMet(
        f"interval [{lo:g}, {hi:g}] still above tolerance after {max_depth} subdivisions"
    )


def _each(fn, *args) -> np.ndarray:
    """fn over the elements of the float64 arrays in ``args`` (a scalar
    is repeated), called on Python floats: libm's exp and pow, never
    numpy's dispatched kernels, whose last bits differ."""
    size = next(len(a) for a in args if isinstance(a, np.ndarray))
    args = [memoryview(a) if isinstance(a, np.ndarray) else repeat(a) for a in args]
    return np.fromiter(map(fn, *args), np.float64, size)


def _halves(left: np.ndarray, right: np.ndarray, first: np.ndarray,
            second: np.ndarray) -> np.ndarray:
    """first at the indices ``left`` and second at ``right``, in one array."""
    both = np.empty(left.size + right.size, first.dtype)
    both[left], both[right] = first, second
    return both


def _simpson_batch(values, count: int, a: float, b: float, tol: float, integrand) -> list:
    """Adaptive Simpson of ``count`` integrands over one [a, b], a < b
    finite, every open interval of every integrand refined one level at
    a time.

    The open intervals of a level are grouped by position; a group holds
    one row per integrand still refining there, and its nodes are the
    same floats for all of them.  ``values(x, at, owner)`` returns
    integrand ``owner[j]`` at node ``x[at[j]]`` for each row j, x holding
    one node per group, so a factor that the integrands share is
    computed once per node.

    Item k of the returned list is what
    ``adaptive_simpson(integrand(k), a, b, tol)`` returns, or the
    :class:`ToleranceNotMet` it raises, bit for bit.  The nodes, panel
    sums, error estimates, acceptance tests and budgets are the same
    float64 operations on arrays (numpy's +, -, *, / and comparisons are
    correctly rounded), each split interval's value and estimate is its
    left half's plus its right half's, summed from the deepest level up,
    and the leftmost interval that fails at ``_MAX_DEPTH`` is the one the
    recursion meets first.  An integrand whose intervals would take the
    next level past ``_MAX_OPEN`` leaves the batch, and
    ``adaptive_simpson`` integrates it from the start instead, as it does
    a batch of one.
    """
    if count < 2:  # nothing to share, and the recursion is quicker on one integrand
        return [_recursive(integrand(k), a, b, tol) for k in range(count)]
    max_depth = _MAX_DEPTH
    lo, mid, hi = np.array([a]), np.array([0.5 * (a + b)]), np.array([b])  # per group
    owner, group = np.arange(count), np.zeros(count, np.intp)  # per row, by group then owner
    flo, fmid, fhi = (values(x, group, owner) for x in (lo, mid, hi))
    whole = ((hi - lo) / 6.0)[group] * (flo + 4.0 * fmid + fhi)
    refines = np.zeros(count, np.int64)
    levels, failed, evicted = [], {}, set()
    budget, depth = float(tol), 0
    while owner.size:
        refines += np.bincount(owner, minlength=count)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = values(lm, group, owner), values(rm, group, owner)
        left = ((mid - lo) / 6.0)[group] * (flo + 4.0 * flm + fmid)
        right = ((hi - mid) / 6.0)[group] * (fmid + 4.0 * frm + fhi)
        both = left + right
        err = (both - whole) / 15.0
        split = ~(np.abs(err) <= budget) if depth >= _MIN_DEPTH else np.ones(owner.size, bool)
        if depth >= max_depth:  # rows are in position order: an owner's first is its leftmost
            hits = np.flatnonzero(split)
            owners, first = np.unique(owner[hits], return_index=True)
            for k, j in zip(owners.tolist(), hits[first].tolist()):
                failed[k] = _not_met(float(lo[group[j]]), float(hi[group[j]]), max_depth)
            split[:] = False
        width = np.bincount(owner[split], minlength=count)
        if 2 * width.sum() > _MAX_OPEN:  # the widest integrands leave until the rest fit
            order = np.argsort(-width, kind="stable")
            kept = 2 * (width.sum() - np.cumsum(width[order]))
            leaving = order[: int(np.argmax(kept <= _MAX_OPEN)) + 1]
            evicted.update(leaving.tolist())
            split &= ~np.isin(owner, leaving)
        # A split group of rank r becomes groups 2r and 2r + 1, its two
        # halves; its rows' left halves come first, then their right halves.
        keep = np.flatnonzero(split)
        parent = group[keep]
        starts = np.flatnonzero(np.diff(parent, prepend=-1))
        sizes = np.diff(starts, append=keep.size)  # split rows per split group
        levels.append((split, np.stack((both + err, np.abs(err)))[:, ~split], sizes))
        into_left, into_right = _children(sizes)
        rank = 2 * np.repeat(np.arange(starts.size), sizes)
        group = _halves(into_left, into_right, rank, rank + 1)
        parent = parent[starts]
        lo, mid, hi = (np.stack((first[parent], second[parent]), axis=1).ravel()
                       for first, second in ((lo, mid), (lm, rm), (mid, hi)))
        owner, flo, fmid, fhi, whole = (
            _halves(into_left, into_right, first[keep], second[keep]) for first, second
            in ((owner, owner), (flo, fmid), (flm, frm), (fmid, fhi), (left, right))
        )
        budget /= 2.0
        depth += 1
    sums = None  # each row's value and estimate, from the deepest level up
    for split, leaves, sizes in reversed(levels):
        level = np.empty((2, split.size))
        level[:, ~split] = leaves
        if sums is not None:
            into_left, into_right = _children(sizes)
            level[:, split] = sums[:, into_left] + sums[:, into_right]
        sums = level
    return [
        _recursive(integrand(k), a, b, tol) if k in evicted
        else failed.get(k, QuadratureResult(value, error, 3 + 2 * int(refines[k])))
        for k, (value, error) in enumerate(sums.T.tolist())
    ]


def _recursive(f, a: float, b: float, tol: float):
    """What adaptive_simpson returns, or the ToleranceNotMet it raises."""
    try:
        return adaptive_simpson(f, a, b, tol)
    except ToleranceNotMet as exc:
        return exc


def _children(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the left and the right half of each split row go in the next
    level, given the split rows of each split group in order: a group's
    left halves first, then its right halves."""
    rows = int(sizes.sum())
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    into_left = starts + np.arange(rows)
    return into_left, into_left + np.repeat(sizes, sizes)


def _check_route_args(s: float, ns: list[int], tol: float, density: bool) -> tuple[float, float]:
    """Check that s is finite and > 0, then each n >= 0 (>= 1 for the
    density route), then TOLERANCE_FLOOR <= tol < 1; return s and tol as
    floats."""
    s = check_positive(float(s))
    for n in ns:
        check_natural(n, "n")
        if density and n == 0:
            raise NRequired("the density route requires n >= 1")
    tol = float(tol)
    if not TOLERANCE_FLOOR <= tol < 1:
        raise ValueError(f"tol must be in [{TOLERANCE_FLOOR:g}, 1), got {tol:g}")
    return s, tol


def _one(results: list) -> QuadratureResult:
    (result,) = results
    if isinstance(result, ToleranceNotMet):
        raise result
    return result


def laplace_via_cdf_quadrature(s: float, n: int, tol: float) -> QuadratureResult:
    """Transform of the max via the distribution-function integral.

    The infinite domain is truncated at T = ln(2/tol)/s, where the
    remaining tail is bounded by e^(-sT) < tol/2; the finite part is
    integrated to tol/2, so the estimated error stays <= tol.  A T that
    overflows float64 (s below about 1.3e-307 at tol 1e-10) raises
    :class:`ToleranceNotMet`.
    """
    return _one(_cdf_batch(s, [n], tol))


def _cdf_batch(s: float, ns: list[int], tol: float) -> list:
    """laplace_via_cdf_quadrature(s, n, tol) for each n of ``ns``, as one
    batch: a result, or the ToleranceNotMet it raises."""
    s, tol = _check_route_args(s, ns, tol, density=False)
    cutoff = math.log(2.0 / tol) / s
    if cutoff == math.inf:
        message = f"truncation point T = ln(2/tol)/s overflows float64 at s = {s:g}"
        return [ToleranceNotMet(message) for _ in ns]
    exp = math.exp
    powers = np.fromiter(map(float, ns), np.float64, len(ns))

    def values(t, at, owner):  # e^-t and e^-st once per node, the n-th power per integrand
        rest = 1.0 - _each(exp, -t)
        decay = _each(exp, -s * t)
        f = _each(pow, rest[at], powers[owner])
        f *= s
        f *= decay[at]
        return f

    def integrand(k):
        n = ns[k]
        return lambda t: s * (1.0 - exp(-t)) ** n * exp(-s * t)

    tail_bound = math.exp(-s * cutoff)
    return [
        base if isinstance(base, ToleranceNotMet)
        else QuadratureResult(base.value, base.estimated_error + tail_bound, base.evaluations)
        for base in _simpson_batch(values, len(ns), 0.0, cutoff, tol / 2.0, integrand)
    ]


def laplace_via_density_quadrature(s: float, n: int, tol: float) -> QuadratureResult:
    """Transform of the max via the density integral, in substituted form.

    Works on n * integral_0^1 (1-w)^s w^(n-1) dw: the substitution trades
    the infinite domain for [0, 1], and for s > 0, n >= 1 the integrand
    is continuous there, including both endpoints.
    """
    return _one(_density_batch(s, [n], tol))


def _density_batch(s: float, ns: list[int], tol: float) -> list:
    """laplace_via_density_quadrature(s, n, tol) for each n of ``ns``, as
    one batch: a result, or the ToleranceNotMet it raises."""
    s, tol = _check_route_args(s, ns, tol, density=True)
    weights = np.fromiter(map(float, ns), np.float64, len(ns))
    powers = np.fromiter((float(n - 1) for n in ns), np.float64, len(ns))

    def values(w, at, owner):  # (1-w)^s once per node, w^(n-1) per integrand
        survival = _each(pow, 1.0 - w, s)
        f = weights[owner] * survival[at]
        f *= _each(pow, w[at], powers[owner])
        return f

    def integrand(k):
        n = ns[k]
        return lambda w: n * (1.0 - w) ** s * w ** (n - 1)

    return _simpson_batch(values, len(ns), 0.0, 1.0, tol, integrand)
