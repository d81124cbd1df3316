import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from binomax.errors import InsufficientSamples, NRequired
from binomax.montecarlo import (
    _CHUNK_ROWS,
    _CHUNK_VALUES,
    KsResult,
    MonteCarloEstimate,
    RngConfig,
    empirical_laplace,
    estimate_tail_prob,
    ks_two_sample,
    sample_gamma_integer,
    sample_max_exp,
    sample_sum_exp,
)

# Seeds are pinned throughout: every gate below was verified to pass at
# these seeds, and the generator contract guarantees it keeps passing.


class TestStreams:
    def test_determinism_bitwise(self):
        a = sample_max_exp(3, RngConfig(9, 3).generator(), 1000)
        b = sample_max_exp(3, RngConfig(9, 3).generator(), 1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_max_exp(3, RngConfig(9, 0).generator(), 1000)
        b = sample_max_exp(3, RngConfig(9, 1).generator(), 1000)
        assert not np.array_equal(a, b)


class TestSamplers:
    def test_exp_sample_mean(self):
        # CLT gate: variance 1/rate^2, 4 sigma
        draws = sample_gamma_integer(1, 1.0, RngConfig(42).generator(), size=1_000_000)
        assert (draws > 0).all()
        assert abs(draws.mean() - 1.0) < 4 * 1.0 / math.sqrt(1_000_000)

    def test_exp_sample_rate_validation(self):
        with pytest.raises(ValueError):
            sample_gamma_integer(1, 0.0, RngConfig(1).generator(), size=1)

    def test_max_exp_requires_n(self):
        with pytest.raises(NRequired):
            sample_max_exp(0, RngConfig(1).generator(), size=1)
        with pytest.raises(NRequired, match="n must be >= 1, got True"):
            sample_max_exp(True, RngConfig(1).generator(), size=3)

    def test_max_exp_mean(self):
        # E max of n unit exponentials = H_n (harmonic number)
        draws = sample_max_exp(2, RngConfig(7).generator(), size=1_000_000)
        sigma = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.5) < 4 * sigma

    def test_max_exp_cdf_against_reference_curve(self):
        n, size = 3, 100_000
        draws = np.sort(sample_max_exp(n, RngConfig(11).generator(), size=size))
        grid = np.linspace(0.05, 8.0, 200)
        empirical = np.searchsorted(draws, grid, side="right") / size
        reference = (1.0 - np.exp(-grid)) ** n
        # one-sample KS band at alpha = 0.01
        assert np.max(np.abs(empirical - reference)) < 1.628 / math.sqrt(size)

    def test_sum_exp_mean_and_variance(self):
        n, size = 3, 1_000_000
        draws = sample_sum_exp(n, RngConfig(13).generator(), size=size)
        mean_exact = sum(1 / j for j in range(1, n + 1))
        var_exact = sum(1 / j**2 for j in range(1, n + 1))
        sigma_mean = math.sqrt(var_exact / size)
        assert abs(draws.mean() - mean_exact) < 4 * sigma_mean
        # Var(sample variance) ~ (mu4 - sigma^4)/N with
        # mu4 = sum(6/j^4) + 3 var^2 for independent exponential parts
        mu4 = sum(6 / j**4 for j in range(1, n + 1)) + 3 * var_exact**2
        sigma_var = math.sqrt((mu4 - var_exact**2) / size)
        assert abs(draws.var(ddof=1) - var_exact) < 5 * sigma_var

    def test_sum_exp_requires_n(self):
        with pytest.raises(NRequired):
            sample_sum_exp(0, RngConfig(1).generator(), size=1)

    def test_gamma_is_exp_for_shape_one(self):
        # shape 1 is one unit exponential draw over the rate, bit for bit
        a = sample_gamma_integer(1, 2.0, RngConfig(3, 8).generator(), size=50_000)
        b = RngConfig(3, 8).generator().standard_exponential(50_000) / 2.0
        assert a.tobytes() == b.tobytes()

    def test_gamma_mean(self):
        m, s, size = 4, 2.0, 1_000_000
        draws = sample_gamma_integer(m, s, RngConfig(17).generator(), size=size)
        sigma = math.sqrt(m / s**2 / size)
        assert abs(draws.mean() - m / s) < 4 * sigma

    def test_gamma_tail_matches_truncated_poisson_sum(self):
        m, s, size = 2, 1.0, 100_000
        draws = np.sort(sample_gamma_integer(m, s, RngConfig(19).generator(), size=size))
        grid = np.linspace(0.1, 10.0, 200)
        empirical_tail = 1.0 - np.searchsorted(draws, grid, side="right") / size
        analytic_tail = sum(
            np.exp(-s * grid) * (s * grid) ** k / math.factorial(k) for k in range(m)
        )
        assert np.max(np.abs(empirical_tail - analytic_tail)) < 1.628 / math.sqrt(size)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            sample_gamma_integer(0, 1.0, RngConfig(1).generator(), size=1)
        with pytest.raises(ValueError, match="m must be a positive integer, got True"):
            sample_gamma_integer(True, 1.0, RngConfig(1).generator(), size=1)
        with pytest.raises(ValueError):
            sample_gamma_integer(1, -1.0, RngConfig(1).generator(), size=1)


class TestSamplerBits:
    """The samplers' floats, pinned bit for bit at one seed."""

    @pytest.mark.parametrize("draw,first,last", [
        (lambda rng: sample_gamma_integer(1, 2.5, rng, 1000),
         "0x1.a5c58d51cf710p-3", "0x1.2bfc11f7376f3p+0"),
        (lambda rng: sample_max_exp(5, rng, 1000), "0x1.c5dcd6decb84ep-1", "0x1.c3a061384aed2p+0"),
        (lambda rng: sample_sum_exp(5, rng, 1000), "0x1.1c91959757ed5p+0", "0x1.cf0cf8d8acb96p-1"),
        (lambda rng: sample_gamma_integer(3, 1.5, rng, 1000),
         "0x1.a797cf0dd317dp-1", "0x1.0d546ba6e97b2p+1"),
    ], ids=["exp", "max", "sum", "gamma"])
    def test_first_and_last_draw(self, draw, first, last):
        draws = draw(RngConfig(2026, 7).generator())
        assert (float(draws[0]).hex(), float(draws[-1]).hex()) == (first, last)

    # Rows of up to 32 values come _CHUNK_ROWS to a block; longer rows come
    # _CHUNK_VALUES // k to a block: one block, two, and three here.
    @pytest.mark.parametrize("size,k", [
        (size, k) for k in (1, 20)
        for size in (1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 5)
    ] + [
        (size, k) for k in (100, 2000)
        for size in (_CHUNK_VALUES // k, _CHUNK_VALUES // k + 1, 2 * (_CHUNK_VALUES // k) + 5)
    ])
    def test_blocked_draws_equal_the_whole_matrix(self, size, k):
        def whole_matrix(stream):
            # the size x k matrix drawn at once, as the samplers did before blocking
            rng = RngConfig(2026, stream).generator()
            return rng.standard_exponential(size * k).reshape(size, k)

        rates = np.arange(1, k + 1, dtype=np.float64)
        cases = [
            (sample_max_exp(k, RngConfig(2026, 0).generator(), size), whole_matrix(0).max(axis=1)),
            (sample_sum_exp(k, RngConfig(2026, 1).generator(), size),
             (whole_matrix(1) / rates).sum(axis=1)),
            (sample_gamma_integer(k, 1.5, RngConfig(2026, 2).generator(), size),
             (whole_matrix(2) / 1.5).sum(axis=1)),
        ]
        for blocked, reference in cases:
            assert blocked.shape == (size,)
            assert blocked.tobytes() == reference.tobytes()

    def test_sum_peak_memory_is_bounded_by_output_and_blocks(self):
        # the whole 10^6 x 20 draw matrix would be 160 MB
        rng = RngConfig(1).generator()
        size, n = 1_000_000, 20
        output, block = size * 8, _CHUNK_ROWS * n * 8
        tracemalloc.start()
        try:
            sample_sum_exp(n, rng, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= output + 4 * block

    @pytest.mark.parametrize("sampler", [
        sample_max_exp, sample_sum_exp,
        lambda k, rng, size: sample_gamma_integer(k, 1.5, rng, size),
    ], ids=["max", "sum", "gamma"])
    def test_long_row_peak_memory_is_bounded_by_output_and_blocks(self, sampler):
        # the whole 10^4 x 2000 draw matrix would be 160 MB, and its integer
        # draws as much again; a block holds _CHUNK_VALUES values, whatever k is
        size, k = 10_000, 2000
        output, block = size * 8, _CHUNK_VALUES * 8
        tracemalloc.start()
        try:
            sampler(k, RngConfig(1).generator(), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= output + 3 * block


class TestEstimators:
    def test_tail_estimate_within_four_sigma(self):
        est = estimate_tail_prob(1, Fraction(1), 2, 100_000, RngConfig(23))
        assert est.exact_reference == Fraction(1, 3)
        assert est.within_sigma(4)
        assert est.std_error <= 0.5 / math.sqrt(est.samples)

    def test_tail_estimate_m2(self):
        est = estimate_tail_prob(2, 1, 1, 100_000, RngConfig(29))
        assert est.exact_reference == Fraction(3, 4)
        assert est.within_sigma(4)

    def test_tail_estimate_extreme_rate(self):
        est = estimate_tail_prob(1, 1000, 1, 100_000, RngConfig(31))
        assert est.exact_reference == Fraction(1, 1001)
        assert est.within_sigma(4)

    def test_tail_estimate_without_hits_gates_on_reference(self):
        # at seed 1 no rate-1e6 exponential of 1e5 exceeds its max (about 1
        # seed in 10 gives a hit), so std_error is 0; the gate then uses the
        # reference's own sigma, not gap == 0
        est = estimate_tail_prob(1, 1000000, 1, 100_000, RngConfig(1))
        assert (est.estimate, est.std_error) == (0.0, 0.0)
        assert est.exact_reference == Fraction(1, 1000001)
        assert est.within_sigma(4)
        assert not MonteCarloEstimate(0.001, 0.0, 100_000, Fraction(1, 1000001)).within_sigma(4)

    def test_tail_float_rate_has_no_reference(self):
        est = estimate_tail_prob(1, 1.5, 1, 10_000, RngConfig(1))
        assert est.exact_reference is None
        with pytest.raises(ValueError):
            est.within_sigma(4)

    def test_tail_preconditions(self):
        with pytest.raises(InsufficientSamples):
            estimate_tail_prob(1, 1, 1, 9_999, RngConfig(1))
        # a count is an int: not a float numpy would refuse, nor a bool
        with pytest.raises(InsufficientSamples, match="an integer >= 10000, got 100000.0"):
            estimate_tail_prob(1, 1, 1, 1e5, RngConfig(1))
        with pytest.raises(InsufficientSamples, match="got True"):
            estimate_tail_prob(1, 1, 1, True, RngConfig(1))
        with pytest.raises(NRequired):
            estimate_tail_prob(1, 1, 0, 10_000, RngConfig(1))
        with pytest.raises(ValueError):
            estimate_tail_prob(0, 1, 1, 10_000, RngConfig(1))

    def test_tail_determinism(self):
        a = estimate_tail_prob(2, 1, 3, 10_000, RngConfig(77, 5))
        b = estimate_tail_prob(2, 1, 3, 10_000, RngConfig(77, 5))
        assert a == b

    def test_empirical_laplace(self):
        est = empirical_laplace(Fraction(1), 1, 1_000_000, RngConfig(37))
        assert est.exact_reference == Fraction(1, 2)
        assert est.within_sigma(4)
        assert est.estimate <= 1.0

    def test_empirical_laplace_n2(self):
        est = empirical_laplace(1, 2, 1_000_000, RngConfig(41))
        assert est.exact_reference == Fraction(1, 3)
        assert est.within_sigma(4)

    def test_empirical_laplace_preconditions(self):
        with pytest.raises(InsufficientSamples):
            empirical_laplace(1, 1, 100, RngConfig(1))
        with pytest.raises(InsufficientSamples, match="got 20000.0"):
            empirical_laplace(1, 1, 20000.0, RngConfig(1))
        with pytest.raises(ValueError):
            empirical_laplace(-1, 1, 10_000, RngConfig(1))


class TestKsTwoSample:
    def test_identical_samples(self):
        xs = sample_gamma_integer(1, 1.0, RngConfig(43).generator(), size=500)
        result = ks_two_sample(xs, xs)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_too_few(self):
        with pytest.raises(InsufficientSamples, match=r"len\(xs\) must be an integer >= 100, got 99"):
            ks_two_sample(np.arange(99), np.arange(200))
        with pytest.raises(InsufficientSamples, match=r"len\(ys\) must be an integer >= 100, got 99"):
            ks_two_sample(np.arange(200), np.arange(99))
        ks_two_sample(np.arange(100), np.arange(100))  # the floor itself is enough

    def test_max_equals_sum_in_distribution(self):
        # the max of n unit exponentials and Exp(1)+...+Exp(n) share a law
        xs = sample_max_exp(5, RngConfig(47, 0).generator(), size=100_000)
        ys = sample_sum_exp(5, RngConfig(47, 1).generator(), size=100_000)
        assert ks_two_sample(xs, ys).p_value > 0.01

    def test_power_against_different_rates(self):
        xs = sample_gamma_integer(1, 1.0, RngConfig(53, 0).generator(), size=10_000)
        ys = sample_gamma_integer(1, 2.0, RngConfig(53, 1).generator(), size=10_000)
        assert ks_two_sample(xs, ys).p_value < 1e-6

    def test_max1_vs_exp1(self):
        xs = sample_max_exp(1, RngConfig(59, 0).generator(), size=100_000)
        ys = sample_gamma_integer(1, 1.0, RngConfig(59, 1).generator(), size=100_000)
        assert ks_two_sample(xs, ys).p_value > 0.01

    def test_against_scipy_oracle(self):
        xs = sample_max_exp(2, RngConfig(61, 0).generator(), size=3_000)
        ys = sample_sum_exp(2, RngConfig(61, 1).generator(), size=2_500)
        ours = ks_two_sample(xs, ys)
        ref = scipy.stats.ks_2samp(xs, ys, method="asymp")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-15)
        # scipy's two-sided asymp p uses the finite-n kstwo refinement; the
        # independent oracle for the limiting distribution itself is kstwobign
        en = len(xs) * len(ys) / (len(xs) + len(ys))
        limit_p = scipy.stats.kstwobign.sf(math.sqrt(en) * ours.statistic)
        assert ours.p_value == pytest.approx(limit_p, rel=1e-9, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=0.02)

    def test_blocked_statistic_equals_the_concatenated_formula(self):
        # heavy ties, n1 != n2, and both sides longer than one block of points
        rng = np.random.default_rng(71)
        xs = np.repeat(np.arange(40.0), 2_000)
        ys = rng.integers(0, 50, size=2 * _CHUNK_ROWS + 3).astype(np.float64) * 0.75
        sx, sy = np.sort(xs), np.sort(ys)
        everything = np.concatenate([sx, sy])
        reference = float(np.max(np.abs(np.searchsorted(sx, everything, side="right") / len(sx)
                                        - np.searchsorted(sy, everything, side="right") / len(sy))))
        result = ks_two_sample(xs, ys)
        assert result.statistic == reference > 0
        assert (result.n1, result.n2) == (len(xs), len(ys))

    def test_peak_memory_is_bounded_by_the_sorted_copies(self):
        # the concatenated formula held 2 (n1 + n2) more floats than the sorted copies
        size = 1_000_000
        xs = sample_max_exp(20, RngConfig(3, 0).generator(), size)
        ys = sample_sum_exp(20, RngConfig(3, 1).generator(), size)
        sorted_copies, block = 2 * size * 8, _CHUNK_ROWS * 8
        tracemalloc.start()
        try:
            ks_two_sample(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sorted_copies + 8 * block

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_non_finite_samples_rejected(self, bad, side):
        # a nan sorts last and is never counted: one among 200 ys read
        # statistic 0.005 and p = 1.0, a vacuous pass
        clean = np.arange(200.0)
        dirty = clean.copy()
        dirty[17] = bad
        xs, ys = (dirty, clean) if side == "xs" else (clean, dirty)
        with pytest.raises(ValueError, match="finite"):
            ks_two_sample(xs, ys)

    def test_tie_handling_matches_scipy(self):
        xs = np.repeat([0.0, 1.0, 2.0, 3.0], 50)
        ys = np.repeat([0.0, 1.5, 2.0, 4.0], 60)
        ours = ks_two_sample(xs, ys)
        ref = scipy.stats.ks_2samp(xs, ys, method="asymp")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-15)


class TestRngConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngConfig(-1)
        with pytest.raises(ValueError):
            RngConfig(0, 2**64)
        with pytest.raises(ValueError, match="master_seed must be a 64-bit unsigned integer, got True"):
            RngConfig(True)
        with pytest.raises(ValueError, match="stream_id must be a 64-bit unsigned integer, got False"):
            RngConfig(0, False)

    def test_dataclass_shapes(self):
        est = MonteCarloEstimate(0.5, 0.01, 100)
        assert est.exact_reference is None
        ks = KsResult(0.1, 0.5, 100, 100)
        assert 0 <= ks.statistic <= 1
