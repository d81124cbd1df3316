"""Exact evaluators for a family of alternating binomial identities.

Every identity here relates an alternating binomial sum to a closed
product form; all of them are rational functions of a parameter s > 0
(with integer parameters n >= 0 and, for two of them, m >= 1) and are
evaluated exactly over :class:`~binomax.exact.Rational`.  The anchor of
the family is

    sum_{k=0..n} (-1)^k C(n,k) s/(s+k)  =  prod_{k=1..n} k/(s+k),

whose two sides are the Laplace transform of the maximum of n unit-rate
exponential variables computed through its distribution function and
through its density.  The remaining identities are derivatives,
binomial inversions, and gamma-tail generalizations of that one.

Conventions, applied consistently so every identity holds from n = 0:
empty products are 1, empty sums are 0, and the max of zero exponential
draws is the constant 0 (all tail probabilities against it equal 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, prod
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import (
    EmptySequence,
    InternalRouteMismatch,
    NRequired,
    UnknownIdentity,
)
from .exact import Rational, check_natural, check_positive, format_rational
from .jets import Jet, jet_constant, jet_variable

#: Default parameter sweep used by the verification engine and the CLI.
DEFAULT_S_GRID: tuple[Rational, ...] = (
    Fraction(1, 7),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(10),
    Fraction(1000, 3),
)
DEFAULT_N_MAX = 100
DEFAULT_M_MAX = 8


class IdentityId(enum.Enum):
    """Registry of verifiable identities; each maps to one (lhs, rhs) pair."""

    BASIC = "basic"
    SQUARED = "squared"
    GENERAL_M = "general_m"
    INVERSION_FIRST = "inversion_first"
    INVERSION_SECOND = "inversion_second"
    DERIVATIVE_FG = "derivative_fg"
    TAIL_DERIVATIVE_FORM = "tail_derivative_form"


#: Identities whose value depends on the gamma shape parameter m.
USES_M = frozenset({IdentityId.GENERAL_M, IdentityId.TAIL_DERIVATIVE_FORM})

_RANK = {ident: i for i, ident in enumerate(IdentityId)}


@dataclass(frozen=True)
class IdentityParams:
    """Evaluation point (s, n, m); s must be positive, m at least 1."""

    s: Rational
    n: int
    m: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _check(self.s, self.n, self.m))


@dataclass(frozen=True)
class VerificationReport:
    """Both sides of one identity at one parameter point."""

    identity: IdentityId
    params: IdentityParams
    lhs: Rational
    rhs: Rational
    equal: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "equal", self.lhs == self.rhs)


def _check(s: Rational, n: int, m: int = 1) -> Fraction:
    """The one parameter check: s > 0, n >= 0, m >= 1, in that order.

    Returns s as a Fraction.  Every public evaluator and
    :class:`IdentityParams` validate through here; the row evaluators
    below take parameters already checked.
    """
    s = Fraction(check_positive(s))
    check_natural(n, "n")
    check_natural(m, "m", 1)
    return s


def _signed_binomials(n: int) -> Iterable[tuple[int, int]]:
    """Yield (k, (-1)^k C(n,k)) for k = 0..n, building the row incrementally."""
    c = 1
    for k in range(n + 1):
        if k:
            c = c * (n - k + 1) // k
        yield k, -c if k & 1 else c


def _alternating(n: int, terms: Iterable[Rational]) -> Fraction:
    """sum_{k=0..n} (-1)^k C(n,k) terms[k], exactly.

    One integer numerator is kept over the running lcm of the term
    denominators, which costs one gcd per term; the sum is normalised
    into a Fraction once, at the end.  ``terms`` must hold exactly n + 1
    values: a shorter or longer sequence raises ValueError.
    """
    num, den = 0, 1
    for (_, c), term in zip(_signed_binomials(n), terms, strict=True):
        q = term.denominator
        g = gcd(den, q)
        num = num * (q // g) + c * term.numerator * (den // g)
        den *= q // g
    return Fraction(num, den)


def eval_basic_lhs(s: Rational, n: int) -> Rational:
    """Alternating sum  sum_{k=0..n} (-1)^k C(n,k) s/(s+k), the m = 1 conditioning tail."""
    return _conditioning_tails(_check(s, n), n, [1])[1]


def eval_basic_rhs(s: Rational, n: int) -> Rational:
    """Product form  prod_{k=1..n} k/(s+k)  =  n!/((s+1)...(s+n));  1 for n = 0.

    For s = p/q that is the integer ratio  n! q^n / prod_{k=1..n} (p+kq).
    """
    s = _check(s, n)
    p, q = s.numerator, s.denominator
    return Fraction(factorial(n) * q ** n, prod(range(p + q, p + n * q + 1, q)))


def eval_f_jet(s: Rational, n: int, order: int) -> Jet:
    """Jet of the alternating-sum side at s, to the requested order.

    Term k is the jet of s/(s+k), so derivative j of the result is the
    exact j-th derivative of the sum form.
    """
    s = _check(s, n)
    check_natural(order, "order")
    var = jet_variable(s, order)
    acc = jet_constant(0, order, at=s)
    for k, c in _signed_binomials(n):
        acc = acc + (var / (var + k)) * c
    return acc


def eval_g_jet(s: Rational, n: int, order: int) -> Jet:
    """Jet of the product side  prod_{k=1..n} k/(s+k)  at s."""
    s = _check(s, n)
    check_natural(order, "order")
    var = jet_variable(s, order)
    acc = jet_constant(1, order, at=s)
    for k in range(1, n + 1):
        acc = acc * (Fraction(k) / (var + k))
    return acc


def _derivative_tails(s: Fraction, n: int, ms: Sequence[int]) -> dict[int, Rational]:
    """Derivative-route tail probability for every m in ms, from one jet.

    The tail for shape m is  sum_{k=0..m-1} (-1)^k (s^k/k!) f^(k)(s),
    and s^k/k! * f^(k)(s) = s^k * coeffs[k], so the tails are prefix
    sums over the coefficients of one jet of f of order max(ms) - 1.
    """
    jet = eval_f_jet(s, n, max(ms) - 1)
    prefix = list(accumulate((-s) ** k * coeff for k, coeff in enumerate(jet.coeffs)))
    return {m: prefix[m - 1] for m in ms}


def _conditioning_tails(s: Fraction, n: int, ms: Sequence[int]) -> dict[int, Rational]:
    """Conditioning-route tail probability for every m in ms:

    sum_{k=0..n} (-1)^k C(n,k) (s/(s+k))^m, one alternating sum per
    distinct m over the ratios s/(s+k), which are computed once.
    """
    ratios = [s / (s + k) for k in range(n + 1)]
    return {m: _alternating(n, (r ** m for r in ratios)) for m in set(ms)}


def tail_prob_via_derivatives(m: int, s: Rational, n: int) -> Rational:
    """P(gamma(s, m) exceeds the max of n unit exponentials), derivative route.

    Equals  sum_{k=0..m-1} (-1)^k (s^k/k!) f^(k)(s)  where f is the
    transform of the max; the jet supplies the exact derivatives.
    """
    check_natural(m, "m", 1)  # m before s and n, as the arguments run
    return _derivative_tails(_check(s, n), n, [m])[m]


def tail_prob_via_conditioning(m: int, s: Rational, n: int) -> Rational:
    """Same tail probability by conditioning on the gamma variable:

    sum_{k=0..n} (-1)^k C(n,k) (s/(s+k))^m.
    """
    check_natural(m, "m", 1)
    return _conditioning_tails(_check(s, n), n, [m])[m]


def _tail_rows(s: Fraction, n: int, ms: Sequence[int]) -> list[tuple[Rational, Rational]]:
    """Both tail-probability routes at (s, n) for every m in ms, each
    route evaluated once for all of them."""
    via_derivatives = _derivative_tails(s, n, ms)
    via_conditioning = _conditioning_tails(s, n, ms)
    return [(via_derivatives[m], via_conditioning[m]) for m in ms]


def tail_prob_exact(m: int, s: Rational, n: int) -> Rational:
    """Exact P(T_m > X_(n)) with the two routes computed and cross-checked.

    Both the derivative route and the conditioning route are always
    evaluated; a disagreement is an implementation bug and aborts with
    :class:`InternalRouteMismatch` rather than returning either value.
    Result is in (0, 1], and equals 1 when n = 0.
    """
    via_derivatives = tail_prob_via_derivatives(m, s, n)
    via_conditioning = tail_prob_via_conditioning(m, s, n)
    if via_derivatives != via_conditioning:
        raise InternalRouteMismatch(
            f"tail probability routes disagree at m={m}, s={format_rational(Fraction(s))}, "
            f"n={n}: {via_derivatives} vs {via_conditioning}"
        )
    if not 0 < via_conditioning <= 1:
        raise InternalRouteMismatch(
            f"tail probability {via_conditioning} outside (0, 1] at m={m}, n={n}"
        )
    return via_conditioning


def eval_squared_identity(s: Rational, n: int) -> tuple[Rational, Rational]:
    """Both sides of the squared-term identity:

    lhs = sum (-1)^k C(n,k) (s/(s+k))^2
    rhs = prod_{k=1..n} k/(s+k) * sum_{j=0..n} s/(s+j)
    """
    s = _check(s, n)
    lhs = _conditioning_tails(s, n, [2])[2]
    rhs = eval_basic_rhs(s, n) * sum((s / (s + j) for j in range(n + 1)), Fraction(0))
    return lhs, rhs


def eval_general_m(s: Rational, n: int, m: int) -> tuple[Rational, Rational]:
    """Both sides of the general gamma-shape identity (n >= 1):

    lhs = sum_{k=0..n} (-1)^k C(n,k) (s/(s+k))^m
    rhs = (n/s) sum_{k=0..m-1} sum_{j=0..n-1} (-1)^j C(n-1,j) (s/(s+j+1))^(k+1)

    The right side comes through the density of the max, which exists
    only for n >= 1; at n = 0 it would be 0 while the left side is 1.
    """
    report = verify(IdentityId.GENERAL_M, IdentityParams(s, n, m))
    return report.lhs, report.rhs


def _general_m_rows(s: Fraction, n: int, ms: Sequence[int]) -> list[tuple[Rational, Rational]]:
    """Both sides of the general-m identity at (s, n) for every m in ms.

    The geometric partial sums  g_j(m) = sum_{i=1..m} (s/(s+j+1))^i  are
    built once per j; each m's right side is one alternating sum of them.
    """
    lhs = _conditioning_tails(s, n, ms)
    top = max(ms)
    ratios = (s / (s + j + 1) for j in range(n))
    partials = [list(accumulate(r ** i for i in range(1, top + 1))) for r in ratios]
    scale = Fraction(n) / s
    rhs = {m: scale * _alternating(n - 1, (g[m - 1] for g in partials)) for m in set(ms)}
    return [(lhs[m], rhs[m]) for m in ms]


def _running_products(s: Fraction, n: int) -> Iterable[Fraction]:
    """prod_{j=1..k} j/(s+j) for k = 0..n, the empty k = 0 product being 1."""
    factors = (Fraction(j) / (s + j) for j in range(1, n + 1))
    return accumulate(factors, mul, initial=Fraction(1))


def eval_inversion_first(s: Rational, n: int) -> tuple[Rational, Rational]:
    """Binomial inversion of the basic identity:

    lhs = sum_{k=0..n} (-1)^k C(n,k) prod_{j=1..k} j/(s+j)
    rhs = s/(s+n)

    with the k = 0 product empty, hence 1.
    """
    s = _check(s, n)
    lhs = _alternating(n, _running_products(s, n))
    return lhs, s / (s + n)


def eval_inversion_second(s: Rational, n: int) -> tuple[Rational, Rational]:
    """Binomial inversion of the squared identity:

    lhs = sum_{k=0..n} (-1)^k C(n,k) [prod_{j=1..k} j/(s+j)] [sum_{i=0..k} s/(s+i)]
    rhs = (s/(s+n))^2
    """
    s = _check(s, n)
    partial_sums = accumulate(s / (s + i) for i in range(n + 1))
    lhs = _alternating(n, map(mul, _running_products(s, n), partial_sums))
    return lhs, (s / (s + n)) ** 2


def eval_derivative_identity(s: Rational, n: int) -> tuple[Rational, Rational]:
    """The first-derivative identity (both sides equal -g'(s) = -f'(s)):

    lhs = prod_{k=1..n} k/(s+k) * sum_{j=1..n} 1/(s+j)
    rhs = sum_{k=0..n} (-1)^(k+1) C(n,k) k/(s+k)^2

    The inner sum runs j = 1..n: it is the logarithmic derivative of the
    full product, as the jet oracle confirms.
    """
    s = _check(s, n)
    log_sum = sum((Fraction(1) / (s + j) for j in range(1, n + 1)), Fraction(0))
    lhs = eval_basic_rhs(s, n) * log_sum
    rhs = -_alternating(n, (k / (s + k) ** 2 for k in range(n + 1)))
    return lhs, rhs


def binomial_invert(values: Sequence[Rational]) -> list[Rational]:
    """Alternating binomial transform  b_n = sum_{k=0..n} (-1)^k C(n,k) a_k.

    The transform is an involution: applying it twice recovers the input.
    """
    items = [Fraction(v) for v in values]
    if not items:
        raise EmptySequence("binomial inversion needs at least one term")
    return [_alternating(n, items[: n + 1]) for n in range(len(items))]


# A row evaluator maps a checked (s, n) and shapes ms to one (lhs, rhs)
# per m in ms.  The lambdas look names up at call time, so a replaced
# module attribute (a test double, a tracer) is the one that runs.
_RowEvaluator = Callable[[Fraction, int, Sequence[int]], list[tuple[Rational, Rational]]]

_ROWS: dict[IdentityId, _RowEvaluator] = {
    IdentityId.BASIC: lambda s, n, ms: [(eval_basic_lhs(s, n), eval_basic_rhs(s, n))] * len(ms),
    IdentityId.SQUARED: lambda s, n, ms: [eval_squared_identity(s, n)] * len(ms),
    IdentityId.GENERAL_M: lambda s, n, ms: _general_m_rows(s, n, ms),
    IdentityId.INVERSION_FIRST: lambda s, n, ms: [eval_inversion_first(s, n)] * len(ms),
    IdentityId.INVERSION_SECOND: lambda s, n, ms: [eval_inversion_second(s, n)] * len(ms),
    IdentityId.DERIVATIVE_FG: lambda s, n, ms: [eval_derivative_identity(s, n)] * len(ms),
    IdentityId.TAIL_DERIVATIVE_FORM: lambda s, n, ms: _tail_rows(s, n, ms),
}


def _row_evaluator(identity: IdentityId, n: int) -> _RowEvaluator:
    """The row evaluator of an identity, once n is in its domain."""
    try:
        evaluate = _ROWS[identity]
    except (KeyError, TypeError):
        raise UnknownIdentity(f"no evaluator registered for {identity!r}") from None
    if identity is IdentityId.GENERAL_M and n == 0:
        raise NRequired("the general-m identity requires n >= 1")
    return evaluate


def verify(identity: IdentityId, params: IdentityParams) -> VerificationReport:
    """Evaluate both sides of one identity and report exact equality.

    Invalid parameters raise (propagated from the evaluators); they are
    never coerced.
    """
    [(lhs, rhs)] = _row_evaluator(identity, params.n)(params.s, params.n, [params.m])
    return VerificationReport(identity=identity, params=params, lhs=lhs, rhs=rhs)


def default_n_values(identity: IdentityId) -> range:
    """Default n sweep: 0..DEFAULT_N_MAX, except identities that need n >= 1."""
    return range(1 if identity is IdentityId.GENERAL_M else 0, DEFAULT_N_MAX + 1)


def sweep(
    identities: Iterable[IdentityId] | None = None,
    s_grid: Sequence[Rational] = DEFAULT_S_GRID,
    n_values: Iterable[int] | None = None,
    m_values: Iterable[int] | None = None,
) -> list[VerificationReport]:
    """Verify identities over a parameter grid.

    Reports come back in a canonical order, sorted on
    (identity, n, m, s), regardless of evaluation order.  Identities
    that ignore m contribute one row per (s, n) with m = 1.  Each
    (identity, n, s) is evaluated once for all m.  An invalid grid raises
    what verifying its points one at a time in (identity, n, m, s) order
    would: at each n the first point's parameters are checked, then the
    identity's domain, then the remaining points.
    """
    chosen = list(identities) if identities is not None else list(IdentityId)
    # Grids are read once: a generator would be used up by the first identity.
    n_grid = list(n_values) if n_values is not None else None
    m_grid = list(m_values) if m_values is not None else list(range(1, DEFAULT_M_MAX + 1))
    reports: list[VerificationReport] = []
    for identity in chosen:
        ns = n_grid if n_grid is not None else list(default_n_values(identity))
        ms = m_grid if identity in USES_M else [1]
        if not ms or not s_grid:
            continue
        for n in ns:
            # The first point's own errors come before the identity's domain error.
            IdentityParams(s=s_grid[0], n=n, m=ms[0])
            evaluate = _row_evaluator(identity, n)
            points = [[IdentityParams(s=s, n=n, m=m) for s in s_grid] for m in ms]
            for column in zip(*points):  # one s at every m
                values = evaluate(column[0].s, n, ms)
                reports.extend(
                    VerificationReport(identity=identity, params=p, lhs=lhs, rhs=rhs)
                    for p, (lhs, rhs) in zip(column, values)
                )
    reports.sort(key=lambda r: (_RANK[r.identity], r.params.n, r.params.m, r.params.s))
    return reports
