"""Seeded stochastic verification of the distributional facts.

Samplers for unit-rate exponential maxima, sums of Exp(j) variables, and
integer-shape gamma variables, plus the estimators and the two-sample
Kolmogorov-Smirnov test used to gate them statistically.

Determinism contract: every stream is a counter-based Philox generator
keyed by (master_seed, stream_id), so the same :class:`RngConfig`
reproduces the identical sample sequence, and distinct stream ids give
independent streams with no shared state.  All uniforms come from the
open interval (0, 1): draws are k/2^53 for an integer k in [1, 2^53),
never exactly 0 or 1, so -log(u) is always finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientSamples, NRequired, TooFewSamples
from .exact import Rational, check_positive
from .identities import eval_basic_rhs, tail_prob_exact

MIN_SAMPLES = 10_000
MIN_KS_SAMPLES = 100

_U53 = 1 << 53


@dataclass(frozen=True)
class RngConfig:
    """Seed pair fully determining one sample stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v < 2**64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def uniform_open(rng: np.random.Generator, size: int | None = None):
    """Uniform draws from the open interval (0, 1)."""
    k = rng.integers(1, _U53, size=size, dtype=np.uint64)
    if size is None:
        return float(k) / _U53
    return k.astype(np.float64) / _U53


def exp_inverse_cdf(u, rate: float):
    """Inverse survival map u -> -log(u)/rate for u in (0, 1)."""
    return -np.log(u) / rate


def exp_sample(rate: float, rng: np.random.Generator, size: int | None = None):
    """Exponential draw(s) with the given rate, by inverse CDF."""
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate!r}")
    val = exp_inverse_cdf(uniform_open(rng, size), rate)
    return float(val) if size is None else val


def sample_max_exp(n: int, rng: np.random.Generator, size: int | None = None):
    """Max of n independent unit-rate exponential draws."""
    if not isinstance(n, int) or n < 1:
        raise NRequired(f"n must be >= 1, got {n!r}")
    if size is None:
        return float(np.max(exp_inverse_cdf(uniform_open(rng, n), 1.0)))
    u = uniform_open(rng, size * n).reshape(size, n)
    return exp_inverse_cdf(u, 1.0).max(axis=1)


def sample_sum_exp(n: int, rng: np.random.Generator, size: int | None = None):
    """Sum of independent draws Exp(1) + Exp(2) + ... + Exp(n)."""
    if not isinstance(n, int) or n < 1:
        raise NRequired(f"n must be >= 1, got {n!r}")
    rates = np.arange(1, n + 1, dtype=np.float64)
    if size is None:
        return float(np.sum(-np.log(uniform_open(rng, n)) / rates))
    u = uniform_open(rng, size * n).reshape(size, n)
    return (-np.log(u) / rates).sum(axis=1)


def sample_gamma_integer(m: int, s: float, rng: np.random.Generator, size: int | None = None):
    """Integer-shape gamma draw(s): the sum of m independent rate-s exponentials."""
    check_positive(m, "m")
    if not float(s) > 0:
        raise ValueError(f"s must be > 0, got {s!r}")
    rate = float(s)
    if size is None:
        return float(np.sum(exp_inverse_cdf(uniform_open(rng, m), rate)))
    u = uniform_open(rng, size * m).reshape(size, m)
    return exp_inverse_cdf(u, rate).sum(axis=1)


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    std_error: float
    samples: int
    exact_reference: Rational | None = None

    def within_sigma(self, k: float) -> bool:
        """True when the estimate is within k standard errors of the exact value."""
        if self.exact_reference is None:
            raise ValueError("no exact reference attached to this estimate")
        gap = abs(self.estimate - float(self.exact_reference))
        return gap <= k * self.std_error if self.std_error > 0 else gap == 0.0


def _exact_s(s) -> Fraction | None:
    return Fraction(s) if isinstance(s, (int, Fraction)) else None


def estimate_tail_prob(m: int, s, n: int, samples: int, cfg: RngConfig) -> MonteCarloEstimate:
    """Empirical P(gamma(s, m) > max of n unit exponentials) from paired draws.

    When s is exact (int or Rational) the matching exact tail probability
    is attached as the reference.  Draw order is fixed: all gamma
    variates first, then all maxima.
    """
    check_positive(m, "m")
    if not isinstance(n, int) or n < 1:
        raise NRequired(f"n must be >= 1, got {n!r}")
    if samples < MIN_SAMPLES:
        raise InsufficientSamples(f"need at least {MIN_SAMPLES} samples, got {samples}")
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
    if not float(s) > 0:
        raise ValueError(f"s must be > 0, got {s!r}")
    if samples < MIN_SAMPLES:
        raise InsufficientSamples(f"need at least {MIN_SAMPLES} samples, got {samples}")
    rng = cfg.generator()
    values = np.exp(-float(s) * sample_max_exp(n, rng, size=samples))
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
    the asymptotic distribution at effective size n1*n2/(n1+n2).
    """
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    ys = np.sort(np.asarray(ys, dtype=np.float64))
    n1, n2 = len(xs), len(ys)
    if n1 < MIN_KS_SAMPLES or n2 < MIN_KS_SAMPLES:
        raise TooFewSamples(f"need >= {MIN_KS_SAMPLES} samples per side, got {n1} and {n2}")
    everything = np.concatenate([xs, ys])
    cdf1 = np.searchsorted(xs, everything, side="right") / n1
    cdf2 = np.searchsorted(ys, everything, side="right") / n2
    statistic = float(np.max(np.abs(cdf1 - cdf2)))
    effective = n1 * n2 / (n1 + n2)
    p_value = _kolmogorov_sf(math.sqrt(effective) * statistic)
    return KsResult(statistic, p_value, n1, n2)
