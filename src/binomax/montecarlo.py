"""Seeded stochastic verification of the distributional facts.

Samplers for unit-rate exponential maxima, sums of Exp(j) variables, and
integer-shape gamma variables, plus the estimators and the two-sample
Kolmogorov-Smirnov test used to gate them statistically.

Determinism contract: every stream is a counter-based Philox generator
keyed by (master_seed, stream_id), so the same :class:`RngConfig`
reproduces the identical sample sequence, and distinct stream ids give
independent streams with no shared state.  The exponentials are numpy's
ziggurat draws (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) and the
estimators use ``math.exp``, not ``np.exp``, so the bytes do not depend on
which SIMD kernels numpy dispatches to at import.  They can still depend
on libm: the ziggurat's rare tail and rejection branches call ``log1p``
and ``exp``, and ``math.exp`` is libm's ``exp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientSamples, NRequired
from .exact import check_natural, check_positive
from .identities import eval_basic_rhs, tail_prob_exact

MIN_SAMPLES = 10_000
MIN_KS_SAMPLES = 100

_CHUNK_ROWS = 1 << 16  # at most rows per block of draws; a KS block takes a quarter of it a sample
_CHUNK_VALUES = 32 * _CHUNK_ROWS  # values per block of draws, so rows of up to 32 fill _CHUNK_ROWS


@dataclass(frozen=True)
class RngConfig:
    """Seed pair fully determining one sample stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < 2**64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _check_n(n: int) -> None:
    """n >= 1: the samplers and estimators take the max of n draws."""
    if check_natural(n, "n") == 0:
        raise NRequired("n must be >= 1, got 0")


def _check_samples(count, minimum: int = MIN_SAMPLES, name: str = "samples") -> None:
    """A count of at least ``minimum``, and an int: not a bool, nor a float numpy would refuse."""
    if not isinstance(count, int) or isinstance(count, bool) or count < minimum:
        raise InsufficientSamples(f"{name} must be an integer >= {minimum}, got {count!r}")


def _check_index_range(size: int, k: int) -> None:
    """Refuse a size x k draw matrix past numpy's index range (numpy's refusal names no size)."""
    if max(size, k) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{size} x {k} draws are past numpy's index range")


def _reduced_exp(rng: np.random.Generator, size: int, k: int, reduce) -> np.ndarray:
    """Row reductions of a size x k matrix of unit-rate exponential draws,
    as one length-``size`` vector.

    ``reduce(draws, out)`` gets one block of draws, which it may overwrite,
    and writes each row's reduction into ``out``.  The matrix is drawn in
    blocks of at most _CHUNK_ROWS rows and _CHUNK_VALUES values (or one
    row) into one reused buffer, so memory is bounded by the output and one
    block, whatever k is.  Philox draws come out in sequence and each row's
    reduction reads only that row, so the values are bit-identical to
    reducing the whole matrix at once.
    """
    _check_index_range(size, k)
    out = np.empty(size)
    block = min(_CHUNK_ROWS, max(1, _CHUNK_VALUES // k))
    buf = np.empty(min(size, block) * k)
    for start in range(0, size, block):
        rows = min(block, size - start)
        draws = rng.standard_exponential(out=buf[:rows * k])
        reduce(draws.reshape(rows, k), out[start:start + rows])
    return out


def _row_max(draws: np.ndarray, out: np.ndarray) -> None:
    """Row maxima as one reduceat over the flat block, which is faster than
    ``max(axis=1)`` on short rows; a max is exact in any order."""
    np.maximum.reduceat(draws.ravel(), np.arange(0, draws.size, draws.shape[1]), out=out)


def _row_sums_over(divisor):
    """The reduction to row sums of draws / divisor, dividing in place."""
    return lambda draws, out: np.divide(draws, divisor, out=draws).sum(axis=1, out=out)


def sample_max_exp(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Max of n independent unit-rate exponential draws, ``size`` times."""
    _check_n(n)
    return _reduced_exp(rng, size, n, _row_max)


def sample_sum_exp(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sum of independent draws Exp(1) + Exp(2) + ... + Exp(n), ``size`` times."""
    _check_n(n)
    _check_index_range(size, n)  # before the 8n bytes of rates
    rates = np.arange(1, n + 1, dtype=np.float64)
    return _reduced_exp(rng, size, n, _row_sums_over(rates))


def sample_gamma_integer(m: int, s: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Integer-shape gamma draws: the sum of m independent rate-s exponentials E/s."""
    check_natural(m, "m", 1)
    s = check_positive(float(s))
    return _reduced_exp(rng, size, m, _row_sums_over(s))


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    std_error: float
    samples: int
    exact_reference: Fraction | None = None

    def within_sigma(self, k: float) -> bool:
        """True when the estimate is within k standard errors of the exact value r.

        A zero ``std_error`` is replaced by sqrt(r(1-r)/samples), which bounds
        the standard error of any [0, 1]-valued estimator of mean r.  A positive
        r below the float64 range is never passed: it reads 0 as a float.
        """
        if self.exact_reference is None:
            raise ValueError("no exact reference attached to this estimate")
        exact = float(self.exact_reference)
        if exact == 0 and self.exact_reference > 0:
            return False
        sigma = (self.std_error if self.std_error > 0
                 else math.sqrt(exact * (1.0 - exact) / self.samples))
        return abs(self.estimate - exact) <= k * sigma


def _exact_s(s) -> Fraction | None:
    return Fraction(s) if isinstance(s, (int, Fraction)) else None


def estimate_tail_prob(m: int, s, n: int, samples: int, cfg: RngConfig) -> MonteCarloEstimate:
    """Empirical P(gamma(s, m) > max of n unit exponentials) from paired draws.

    When s is exact (int or Fraction) the matching exact tail probability
    is attached as the reference.  Draw order is fixed: all gamma
    variates first, then all maxima.
    """
    check_natural(m, "m", 1)
    _check_n(n)
    _check_samples(samples)
    rng = cfg.generator()
    gammas = sample_gamma_integer(m, float(s), rng, size=samples)
    maxima = sample_max_exp(n, rng, size=samples)
    p = float(np.count_nonzero(gammas > maxima)) / samples
    std_error = math.sqrt(p * (1.0 - p) / samples)
    exact = _exact_s(s)
    reference = tail_prob_exact(m, exact, n) if exact is not None else None
    return MonteCarloEstimate(p, std_error, samples, reference)


def empirical_laplace(s, n: int, samples: int, cfg: RngConfig) -> MonteCarloEstimate:
    """Sample mean of exp(-s X) over draws X = max of n unit exponentials."""
    check_positive(s)
    _check_samples(samples)
    rng = cfg.generator()
    with np.errstate(over="ignore"):  # for huge s, -s*X may be -inf; exp(-inf) = 0
        scaled = -float(s) * sample_max_exp(n, rng, size=samples)
    values = np.fromiter(map(math.exp, scaled.tolist()), np.float64, samples)
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1)) / math.sqrt(samples)
    exact = _exact_s(s)
    reference = eval_basic_rhs(exact, n) if exact is not None else None
    return MonteCarloEstimate(estimate, std_error, samples, reference)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n1: int
    n2: int


def _kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function 2 sum (-1)^(k-1) e^(-2 k^2 lam^2).

    Terms below 1e-12 are dropped; below lam = 0.2 the value is 1 to
    within that truncation error, which also covers lam = 0 exactly.

    This is the limit as the sample sizes grow, and the finite-size law
    approaches it slowly (Marsaglia, Tsang & Wang, "Evaluating
    Kolmogorov's distribution", J. Stat. Softw. 8(18), 2003, who give an
    exact method for the one-sample case).  Against SciPy's exact law for
    two equal samples, the series at the 0.01 gate reads 2.7% high at 100
    points per side, 0.2% at 1000 and 0.02% at 10^4: accurate at the CLI's
    sizes (>= 10^4 per side), and slightly conservative near the floor.
    """
    if lam < 0.2:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = 2.0 * math.exp(-2.0 * (k * lam) ** 2)
        if term < 1e-12:
            break
        total += sign * term
        sign = -sign
        k += 1
    return min(max(total, 0.0), 1.0)


def ks_two_sample(xs, ys) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test.

    The statistic is the exact supremum gap between the two empirical
    CDFs, evaluated right-continuously at every observed value so tied
    values are fully counted before the gap is read.  The p-value uses
    the asymptotic distribution at effective size n1*n2/(n1+n2).  Each
    sample is one-dimensional (ValueError otherwise), of at least
    MIN_KS_SAMPLES values (InsufficientSamples otherwise), all finite
    (ValueError otherwise).
    """
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    for name, sample in (("xs", xs), ("ys", ys)):
        if sample.ndim != 1:
            raise ValueError(f"{name} must be one-dimensional, got shape {sample.shape}")
    return _ks_sorted(np.sort(xs), np.sort(ys))


def _ks_sorted(xs: np.ndarray, ys: np.ndarray) -> KsResult:
    """ks_two_sample of two one-dimensional float64 samples already sorted
    ascending, read without a copy of either."""
    n1, n2 = len(xs), len(ys)
    _check_samples(n1, MIN_KS_SAMPLES, "len(xs)")
    _check_samples(n2, MIN_KS_SAMPLES, "len(ys)")
    # sorted, a nan or +inf is last and a -inf first; a nan is never counted
    if not np.isfinite([xs[0], xs[-1], ys[0], ys[-1]]).all():
        raise ValueError("ks_two_sample needs finite samples")
    # One merge of the sorted samples (Smirnov, 1948), a block at a time.
    # Each block ends at a value v that ends a tie run in both samples; its
    # points below v, at most _CHUNK_ROWS // 4 a sample, are merged by one
    # stable argsort, and the gap is read where a tie run ends.  The run at
    # v is read once, from its counts, and never held, however long.  These
    # are the count pairs that searchsorted(..., side="right") gives at each
    # point, so the statistic is the same float.
    statistic, step = 0.0, _CHUNK_ROWS // 4
    i = j = 0  # the points of each sample counted so far
    while i < n1 or j < n2:
        v = min(xs[min(i + step, n1) - 1] if i < n1 else math.inf,
                ys[min(j + step, n2) - 1] if j < n2 else math.inf)
        below_x, below_y = int(xs.searchsorted(v)), int(ys.searchsorted(v))
        if i < below_x or j < below_y:
            both = np.concatenate((xs[i:below_x], ys[j:below_y]))
            order = both.argsort(kind="stable")
            merged = both[order]
            c1 = np.cumsum(order < below_x - i)
            c2 = np.arange(1, len(both) + 1) - c1
            ends = np.append(merged[1:] != merged[:-1], True)
            gap = np.abs((c1[ends] + i) / n1 - (c2[ends] + j) / n2)
            statistic = max(statistic, float(gap.max()))
        i, j = int(xs.searchsorted(v, "right")), int(ys.searchsorted(v, "right"))
        statistic = max(statistic, abs(i / n1 - j / n2))
    effective = n1 * n2 / (n1 + n2)
    p_value = _kolmogorov_sf(math.sqrt(effective) * statistic)
    return KsResult(statistic, p_value, n1, n2)
