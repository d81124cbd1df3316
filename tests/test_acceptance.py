"""Acceptance suite: every release gate in one module, one line printed each.

Exact gates assert rational equality (zero tolerance).  Numerical and
statistical gates run at the stated tolerances with pinned seeds.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import filecmp
import random
from contextlib import contextmanager
from fractions import Fraction

from binomax.cli import EXIT_OK, main
from binomax.identities import (
    DEFAULT_S_GRID,
    IdentityId,
    IdentityParams,
    binomial_invert,
    eval_basic_lhs,
    eval_basic_rhs,
    eval_f_jet,
    eval_g_jet,
    tail_prob_exact,
    verify,
)
from binomax.montecarlo import (
    RngConfig,
    estimate_tail_prob,
    ks_two_sample,
    sample_gamma_integer,
    sample_max_exp,
    sample_sum_exp,
)
from binomax.quadrature import (
    laplace_via_cdf_quadrature,
    laplace_via_density_quadrature,
)

S_GRID = DEFAULT_S_GRID
QUAD_S = (0.5, 1.0, 2.0, 10.0)


def sides(identity, s, n, m=1):
    report = verify(identity, IdentityParams(s, n, m))
    return report.lhs, report.rhs


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2}: FAIL - {description}")
        raise
    print(f"criterion {number:>2}: PASS - {description}")


def test_criterion_01_basic_identity_exact_full_grid():
    with criterion(1, "basic identity exact for n in 0..100 on the s grid"):
        for s in S_GRID:
            for n in range(101):
                assert eval_basic_lhs(s, n) == eval_basic_rhs(s, n)


def test_criterion_02_squared_identity_and_jet_reconstruction():
    with criterion(2, "squared identity + first-derivative jet reconstruction, same grid"):
        for s in S_GRID:
            for n in range(101):
                lhs, rhs = sides(IdentityId.SQUARED, s, n)
                assert lhs == rhs
                f = eval_f_jet(s, n, 1)
                g = eval_g_jet(s, n, 1)
                assert f.value - s * f.derivative(1) == lhs
                assert g.value - s * g.derivative(1) == rhs


def test_criterion_03_general_m_identity():
    with criterion(3, "general-m identity exact for n in 1..50, m in 1..8"):
        for s in S_GRID:
            for n in range(1, 51):
                for m in range(1, 9):
                    lhs, rhs = sides(IdentityId.GENERAL_M, s, n, m)
                    assert lhs == rhs


def test_criterion_04_inversion_identities_and_involution():
    with criterion(4, "both inversion identities for n in 0..100 + involution"):
        for s in S_GRID:
            for n in range(101):
                lhs1, rhs1 = sides(IdentityId.INVERSION_FIRST, s, n)
                assert lhs1 == rhs1 == s / (s + n)
                lhs2, rhs2 = sides(IdentityId.INVERSION_SECOND, s, n)
                assert lhs2 == rhs2 == (s / (s + n)) ** 2
        rng = random.Random(20260809)
        for _ in range(40):
            seq = [
                Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                for _ in range(rng.randint(1, 24))
            ]
            assert binomial_invert(binomial_invert(seq)) == seq


def test_criterion_05_derivative_identity_against_jet_oracle():
    with criterion(5, "derivative identity equals -g'(s) jet oracle for n in 0..50"):
        for s in S_GRID:
            for n in range(51):
                lhs, rhs = sides(IdentityId.DERIVATIVE_FG, s, n)
                oracle = -eval_g_jet(s, n, 1).derivative(1)
                assert lhs == oracle
                assert rhs == oracle


def test_criterion_06_tail_probability_dual_routes():
    with criterion(6, "tail probability route A == route B for m in 1..8, n in 1..50"):
        for s in S_GRID:
            for n in range(1, 51):
                for m in range(1, 9):
                    a, b = sides(IdentityId.TAIL_DERIVATIVE_FORM, s, n, m)
                    assert a == b
                    assert tail_prob_exact(m, s, n) == b
                assert tail_prob_exact(1, s, n) == eval_basic_rhs(s, n)


def test_criterion_07_quadrature_cross_check():
    with criterion(7, "both quadrature routes within 1e-9 of exact at tol 1e-10"):
        tol = 1e-10
        for s in QUAD_S:
            for n in range(1, 31):
                exact = float(eval_basic_rhs(Fraction(s), n))
                cdf = laplace_via_cdf_quadrature(s, n, tol)
                dens = laplace_via_density_quadrature(s, n, tol)
                assert abs(cdf.value - exact) <= 1e-9
                assert abs(dens.value - exact) <= 1e-9


def test_criterion_08_distributional_equality_ks_gate():
    with criterion(8, "KS gate: max == staircase sum in law (p > 0.01); rate-1 vs rate-2 control"):
        for idx, n in enumerate((1, 2, 5, 10)):
            xs = sample_max_exp(n, RngConfig(2026, 2 * idx).generator(), size=100_000)
            ys = sample_sum_exp(n, RngConfig(2026, 2 * idx + 1).generator(), size=100_000)
            assert ks_two_sample(xs, ys).p_value > 0.01
        xs = sample_gamma_integer(1, 1.0, RngConfig(2026, 100).generator(), size=10_000)
        ys = sample_gamma_integer(1, 2.0, RngConfig(2026, 101).generator(), size=10_000)
        assert ks_two_sample(xs, ys).p_value < 1e-6


def test_criterion_09_monte_carlo_tail_estimates():
    with criterion(9, "tail estimates within 4 standard errors of exact at 1e5 samples"):
        cases = [(1, 1, 2), (2, 1, 1), (2, 2, 3), (5, 3, 4)]
        for idx, (m, s, n) in enumerate(cases):
            est = estimate_tail_prob(m, s, n, 100_000, RngConfig(90210, idx))
            assert est.exact_reference == tail_prob_exact(m, Fraction(s), n)
            assert est.within_sigma(4)


def test_criterion_10_simulate_determinism(tmp_path):
    with criterion(10, "seeded simulate reruns emit byte-identical reports"):
        for fmt in ("json", "csv"):
            paths = [tmp_path / f"run_a.{fmt}", tmp_path / f"run_b.{fmt}"]
            for path in paths:
                code = main([
                    "simulate", "--suite", "lemma1", "--n", "2", "--samples",
                    "20000", "--seed", "12345", "--format", fmt,
                    "--output", str(path),
                ])
                assert code == EXIT_OK
            assert filecmp.cmp(*paths, shallow=False)
            assert paths[0].read_bytes() == paths[1].read_bytes()
