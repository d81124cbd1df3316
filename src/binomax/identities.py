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
from itertools import accumulate, islice, product, repeat
from math import factorial, lcm, prod
from operator import mul
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import (
    EmptySequence,
    InternalRouteMismatch,
    NRequired,
    UnknownIdentity,
)
from .exact import Rational, check_natural, check_positive, format_rational
from .jets import Jet, JetBlock, jet_constant, jet_variable

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

    Returns s as a Fraction.  Every per-point evaluator and
    :class:`IdentityParams` validate through here, sweep with the same
    checks; the row functions below take parameters already checked.
    """
    s = Fraction(check_positive(s))
    check_natural(n, "n")
    check_natural(m, "m", 1)
    return s


# Evaluation by column: every n of a grid ns and m of shapes ms at one checked s.
_Tails = dict[int, dict[int, Rational]]  # n -> {m: tail probability}
_Rows = dict[int, dict[int, tuple[Rational, Rational]]]  # n -> {m: (lhs, rhs)}


#: Consecutive terms per block of the alternating-sum kernels.  Each block
#: sits on its own common denominator, so memory grows linearly in max(n);
#: one denominator over all terms grows quadratically.
_BLOCK = 64


def _signed_binomials(n: int) -> list[int]:
    """The row (-1)^k C(n,k), k = 0..n, built incrementally."""
    row, c = [1], 1
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        row.append(-c if k & 1 else c)
    return row


def _blocks(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    """Integer pairs (a_k, b_k) in blocks of _BLOCK consecutive k, each block
    as (d, [a_k d/b_k]) over the lcm d of its b_k."""
    blocks, pairs = [], iter(pairs)
    while chunk := list(islice(pairs, _BLOCK)):
        den = lcm(*(b for _, b in chunk))
        blocks.append((den, [a * (den // b) for a, b in chunk]))
    return blocks


def _binomial_sums(ns: Iterable[int], columns: Iterable[Iterable[tuple[int, int]]]
                   ) -> dict[int, list[Fraction]]:
    """sum_{k=0..n} (-1)^k C(n,k) a_k/b_k, exactly, for every n in ns and every
    column of integer pairs (a_k, b_k), k = 0..max(ns): n -> one sum per column.

    The pairs need not be in lowest terms.  Each column is put in blocks
    once; each n's row of signed binomials is built once for all columns,
    and its sum is one integer dot product per block, the block partials
    cross-multiplied together once and made a Fraction at the end.  Every
    column must hold exactly max(ns) + 1 pairs, else ValueError.
    """
    ns = set(ns)
    size = max(ns) + 1
    blocked = [_blocks(column) for column in columns]
    if any(sum(len(nums) for _, nums in blocks) != size for blocks in blocked):
        raise ValueError(f"every column needs exactly {size} terms")
    sums = {}
    for n in ns:
        row = _signed_binomials(n)
        sums[n] = [_dot(row, blocks) for blocks in blocked]
    return sums


def _dot(row: list[int], blocks: list[tuple[int, list[int]]]) -> Fraction:
    """One column's sum at n = len(row) - 1: a dot product per block, then
    the block partials cross-multiplied over one denominator."""
    num, den = 0, 1
    for start, (d, nums) in zip(range(0, len(row), _BLOCK), blocks):
        part = sum(map(mul, row[start:start + _BLOCK], nums))
        num, den = num * d + part * den, den * d
    return Fraction(num, den)


def eval_basic_lhs(s: Rational, n: int) -> Rational:
    """Alternating sum  sum_{k=0..n} (-1)^k C(n,k) s/(s+k), the m = 1 conditioning tail."""
    return _conditioning_tails(_check(s, n), [n], [1])[n][1]


def eval_basic_rhs(s: Rational, n: int) -> Rational:
    """Product form  prod_{k=1..n} k/(s+k)  =  n!/((s+1)...(s+n));  1 for n = 0.

    For s = p/q that is the integer ratio  n! q^n / prod_{k=1..n} (p+kq).
    """
    return Fraction(*_basic_rhs_pair(s, n))


def _basic_rhs_pair(s: Rational, n: int) -> tuple[int, int]:
    """The product form as the integer pair (n! q^n, prod_{k=1..n} (p+kq)),
    not reduced: a float reference reads it as num / den, which is correctly
    rounded, without the gcd that a Fraction costs."""
    s = _check(s, n)
    p, q = s.numerator, s.denominator
    return factorial(n) * q ** n, prod(range(p + q, p + n * q + 1, q))


def eval_f_jet(s: Rational, n: int, order: int) -> Jet:
    """Jet of the alternating-sum side at s, to the requested order.

    Term k is the jet of s/(s+k), so derivative j of the result is the
    exact j-th derivative of the sum form.
    """
    s = _check(s, n)
    return _f_jet_column(s, [n], order)[n]


def _f_jet_column(s: Fraction, ns: Collection[int], order: int) -> dict[int, Jet]:
    """eval_f_jet at s for every n in ns: n -> jet.

    The term jets var/(var+k), k = 0..max(ns), are divided once, and put
    in blocks of _BLOCK on one common denominator each; each n's jet is one
    integer-weighted sum per block, the blocks joined with jet addition.
    """
    var = jet_variable(s, order)
    terms = [var / (var + k) for k in range(max(ns) + 1)]
    blocks = [JetBlock(terms[i:i + _BLOCK]) for i in range(0, len(terms), _BLOCK)]
    jets = {}
    for n in ns:
        row = _signed_binomials(n)
        parts = [block.weighted_sum(row[i:i + _BLOCK])
                 for i, block in zip(range(0, n + 1, _BLOCK), blocks)]
        jets[n] = sum(parts[1:], parts[0])
    return jets


def eval_g_jet(s: Rational, n: int, order: int) -> Jet:
    """Jet of the product side  prod_{k=1..n} k/(s+k)  at s."""
    s = _check(s, n)
    var = jet_variable(s, order)
    acc = jet_constant(1, order, at=s)
    for k in range(1, n + 1):
        acc = acc * (Fraction(k) / (var + k))
    return acc


def _derivative_tails(s: Fraction, ns: Collection[int], ms: Sequence[int]) -> _Tails:
    """P(gamma(s, m) > the max of n unit exponentials), derivative route, every n in ns, m in ms.

    The tail for shape m is  sum_{k=0..m-1} (-1)^k (s^k/k!) f^(k)(s),  where
    f is the transform of the max and the jet supplies the exact derivatives:
    s^k/k! * f^(k)(s) = s^k * coeffs[k], so the tails are the Taylor sums at
    displacement -s of one jet of f of order max(ms) - 1 per n.
    """
    tails, shapes = {}, set(ms)
    for n, jet in _f_jet_column(s, ns, max(shapes) - 1).items():
        nums, den = jet.taylor_sums(-s)
        tails[n] = {m: Fraction(nums[m - 1], den) for m in shapes}
    return tails


def _conditioning_tails(s: Fraction, ns: Collection[int], ms: Sequence[int]) -> _Tails:
    """The same tail probability by conditioning on the gamma variable, every n in ns, m in ms:

    sum_{k=0..n} (-1)^k C(n,k) (s/(s+k))^m; for s = p/q, term k is the
    integer pair (p^m, (p+kq)^m), one column per distinct m.
    """
    shapes = sorted(set(ms))
    p, q = s.numerator, s.denominator
    shifted = range(p, p + max(ns) * q + 1, q)
    sums = _binomial_sums(ns, [zip(repeat(p ** m), map(pow, shifted, repeat(m))) for m in shapes])
    return {n: dict(zip(shapes, row)) for n, row in sums.items()}


def tail_prob_exact(m: int, s: Rational, n: int) -> Rational:
    """Exact P(T_m > X_(n)) with the two routes computed and cross-checked.

    Both the derivative route and the conditioning route are always
    evaluated; a disagreement is an implementation bug and aborts with
    :class:`InternalRouteMismatch` rather than returning either value.
    Result is in (0, 1], and equals 1 when n = 0.
    """
    check_natural(m, "m", 1)  # m before s and n, as the arguments run
    s = _check(s, n)
    via_derivatives, via_conditioning = _tail_rows(s, [n], [m])[n][m]
    if via_derivatives != via_conditioning:
        raise InternalRouteMismatch(
            f"tail probability routes disagree at m={m}, s={format_rational(s)}, "
            f"n={n}: {via_derivatives} vs {via_conditioning}"
        )
    if not 0 < via_conditioning <= 1:
        raise InternalRouteMismatch(
            f"tail probability {via_conditioning} outside (0, 1] at m={m}, n={n}"
        )
    return via_conditioning


def _product_side(s: Fraction, top: int) -> Iterator[tuple[int, int, int]]:
    """For s = p/q and k = 0..top, the integers (a_k, h_k, d_k) with

    a_k/d_k = prod_{j=1..k} j/(s+j)  and  h_k/d_k = sum_{j=0..k} s/(s+j),

    over d_k = prod_{j=1..k} (p+jq): a_k = k! q^k, h_0 = 1 and
    h_k = h_{k-1} (p+kq) + p d_{k-1}.
    """
    p, q = s.numerator, s.denominator
    a = h = d = 1
    yield a, h, d
    for k in range(1, top + 1):
        e = p + k * q
        a, h, d = a * k * q, h * e + p * d, d * e
        yield a, h, d


def _basic_rows(s: Fraction, ns: Collection[int], ms: Sequence[int]) -> _Rows:
    """Both sides of the basic identity: the m = 1 conditioning tail and
    the product prod_{k=1..n} k/(s+k)."""
    lhs = _conditioning_tails(s, ns, [1])
    return {n: dict.fromkeys(ms, (lhs[n][1], Fraction(a, d)))
            for n, (a, _, d) in enumerate(_product_side(s, max(ns))) if n in ns}


def _squared_rows(s: Fraction, ns: Collection[int], ms: Sequence[int]) -> _Rows:
    """Both sides of the squared-term identity:

    lhs = sum (-1)^k C(n,k) (s/(s+k))^2
    rhs = prod_{k=1..n} k/(s+k) * sum_{j=0..n} s/(s+j)
    """
    lhs = _conditioning_tails(s, ns, [2])
    return {n: dict.fromkeys(ms, (lhs[n][2], Fraction(a * h, d * d)))
            for n, (a, h, d) in enumerate(_product_side(s, max(ns))) if n in ns}


def _general_m_rows(s: Fraction, ns: Collection[int], ms: Sequence[int]) -> _Rows:
    """Both sides of the general gamma-shape identity for every n in ns and m in ms:

    lhs = sum_{k=0..n} (-1)^k C(n,k) (s/(s+k))^m
    rhs = (n/s) sum_{k=0..m-1} sum_{j=0..n-1} (-1)^j C(n-1,j) (s/(s+j+1))^(k+1)

    The right side comes through the density of the max, which exists
    only for n >= 1; at n = 0 it would be 0 while the left side is 1.
    For s = p/q and d = p + (j+1)q, the partial sums g_j(m) = sum_{i=1..m} (p/d)^i
    are the pairs (h_m, d^m), h_m = d h_{m-1} + p^m, built once per j;
    each m's right side at n is the alternating sum of them at n - 1.
    """
    shapes = sorted(set(ms))
    lhs = _conditioning_tails(s, ns, shapes)
    p, q = s.numerator, s.denominator
    p_powers = list(accumulate(repeat(p, shapes[-1]), mul))
    partials = [list(zip(accumulate(p_powers, lambda h, p_power: h * d + p_power),
                         accumulate(repeat(d), mul)))
                for d in range(p + q, p + max(ns) * q + 1, q)]
    sums = _binomial_sums([n - 1 for n in ns], [[g[m - 1] for g in partials] for m in shapes])
    return {n: {m: (lhs[n][m], Fraction(n) / s * rhs) for m, rhs in zip(shapes, sums[n - 1])}
            for n in ns}


def _inversion_first_rows(s: Fraction, ns: Collection[int], ms: Sequence[int]) -> _Rows:
    """Binomial inversion of the basic identity (the k = 0 product is empty, hence 1):

    lhs = sum_{k=0..n} (-1)^k C(n,k) prod_{j=1..k} j/(s+j)
    rhs = s/(s+n)
    """
    lhs = _binomial_sums(ns, [((a, d) for a, _, d in _product_side(s, max(ns)))])
    return {n: dict.fromkeys(ms, (value, s / (s + n))) for n, (value,) in lhs.items()}


def _inversion_second_rows(s: Fraction, ns: Collection[int], ms: Sequence[int]) -> _Rows:
    """Binomial inversion of the squared identity:

    lhs = sum_{k=0..n} (-1)^k C(n,k) [prod_{j=1..k} j/(s+j)] [sum_{i=0..k} s/(s+i)]
    rhs = (s/(s+n))^2
    """
    lhs = _binomial_sums(ns, [((a * h, d * d) for a, h, d in _product_side(s, max(ns)))])
    return {n: dict.fromkeys(ms, (value, (s / (s + n)) ** 2)) for n, (value,) in lhs.items()}


def _derivative_rows(s: Fraction, ns: Collection[int], ms: Sequence[int]) -> _Rows:
    """The first-derivative identity (both sides equal -g'(s) = -f'(s)):

    lhs = prod_{k=1..n} k/(s+k) * sum_{j=1..n} 1/(s+j)
    rhs = sum_{k=0..n} (-1)^(k+1) C(n,k) k/(s+k)^2

    The inner sum runs j = 1..n: it is the logarithmic derivative of the
    full product, as the jet oracle confirms, and equals (q/p) (h_n - d_n)/d_n,
    the j = 0 term of h_n/d_n being 1.
    """
    p, q = s.numerator, s.denominator
    rhs = _binomial_sums(ns, [[(k * q * q, (p + k * q) ** 2) for k in range(max(ns) + 1)]])
    return {n: dict.fromkeys(ms, (Fraction(a * (h - d) * q, p * d * d), -rhs[n][0]))
            for n, (a, h, d) in enumerate(_product_side(s, max(ns))) if n in ns}


def _tail_rows(s: Fraction, ns: Collection[int], ms: Sequence[int]) -> _Rows:
    """Both tail-probability routes for every n in ns and m in ms, each route
    evaluated once for all of them: lhs by derivatives, rhs by conditioning."""
    via_derivatives = _derivative_tails(s, ns, ms)
    via_conditioning = _conditioning_tails(s, ns, ms)
    return {n: {m: (via_derivatives[n][m], via_conditioning[n][m]) for m in ms} for n in ns}


def binomial_invert(values: Sequence[Rational]) -> list[Rational]:
    """Alternating binomial transform  b_n = sum_{k=0..n} (-1)^k C(n,k) a_k.

    The transform is an involution: applying it twice recovers the input.
    """
    pairs = [Fraction(v).as_integer_ratio() for v in values]
    if not pairs:
        raise EmptySequence("binomial inversion needs at least one term")
    sums = _binomial_sums(range(len(pairs)), [pairs])
    return [sums[n][0] for n in range(len(pairs))]


# Each identity's row function, (checked s, distinct ns, shapes ms) -> _Rows, and smallest n.
_ROWS: dict[IdentityId, tuple[Callable[..., _Rows], int]] = {
    IdentityId.BASIC: (_basic_rows, 0),
    IdentityId.SQUARED: (_squared_rows, 0),
    IdentityId.GENERAL_M: (_general_m_rows, 1),
    IdentityId.INVERSION_FIRST: (_inversion_first_rows, 0),
    IdentityId.INVERSION_SECOND: (_inversion_second_rows, 0),
    IdentityId.DERIVATIVE_FG: (_derivative_rows, 0),
    IdentityId.TAIL_DERIVATIVE_FORM: (_tail_rows, 0),
}


def _row_evaluator(identity: IdentityId, n: int | None = None) -> tuple[Callable[..., _Rows], int]:
    """The row function of an identity and the smallest n of its domain,
    once n, when one is given, is in that domain."""
    try:
        evaluate, first_n = _ROWS[identity]
    except (KeyError, TypeError):
        raise UnknownIdentity(f"no evaluator registered for {identity!r}") from None
    if n is not None and n < first_n:
        raise NRequired(f"the {identity.value} identity requires n >= {first_n}")
    return evaluate, first_n


def verify(identity: IdentityId, params: IdentityParams) -> VerificationReport:
    """Evaluate both sides of one identity and report exact equality.

    Invalid parameters raise (propagated from the evaluators); they are
    never coerced.
    """
    n, m = params.n, params.m
    evaluate, _ = _row_evaluator(identity, n)
    lhs, rhs = evaluate(params.s, [n], [m])[n][m]
    return VerificationReport(identity=identity, params=params, lhs=lhs, rhs=rhs)


def sweep(
    identities: Iterable[IdentityId] | None = None,
    s_grid: Iterable[Rational] = DEFAULT_S_GRID,
    n_values: Iterable[int] | None = None,
    m_values: Iterable[int] | None = None,
) -> list[VerificationReport]:
    """Verify identities over a parameter grid.

    Reports come back in a canonical order, sorted on
    (identity, n, m, s), regardless of evaluation order.  Identities
    that ignore m contribute one row per (s, n) with m = 1.  The default
    n grid runs from each identity's smallest n to DEFAULT_N_MAX.
    Before anything is evaluated, every value of the s, n and m grids is
    checked once, in that order, and then each identity's domain on its
    n grid.  Each (identity, s) is then evaluated once for all n and m.
    """
    chosen = list(identities) if identities is not None else list(IdentityId)
    # Each grid is read and checked once: a generator would be used up by the first identity.
    s_grid = [Fraction(check_positive(s)) for s in s_grid]
    n_grid = [check_natural(n, "n") for n in n_values] if n_values is not None else None
    m_grid = ([check_natural(m, "m", 1) for m in m_values] if m_values is not None
              else list(range(1, DEFAULT_M_MAX + 1)))
    plan = []
    for identity in chosen:
        ns = n_grid if n_grid is not None else range(_row_evaluator(identity)[1], DEFAULT_N_MAX + 1)
        ms = m_grid if identity in USES_M else [1]
        if s_grid and ns and ms:
            plan.append((identity, _row_evaluator(identity, min(ns))[0], ns, ms))
    reports: list[VerificationReport] = []
    for identity, evaluate, ns, ms in plan:
        distinct_ns = set(ns)
        rows = {s: evaluate(s, distinct_ns, ms) for s in dict.fromkeys(s_grid)}
        for n, m, s in product(ns, ms, s_grid):
            lhs, rhs = rows[s][n][m]
            reports.append(VerificationReport(identity=identity, params=IdentityParams(s, n, m),
                                              lhs=lhs, rhs=rhs))
    reports.sort(key=lambda r: (_RANK[r.identity], r.params.n, r.params.m, r.params.s))
    return reports
