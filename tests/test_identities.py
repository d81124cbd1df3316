import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binomax import identities
from binomax.errors import (
    EmptySequence,
    NonPositiveS,
    NRequired,
    UnknownIdentity,
)
from binomax.exact import factorial, rising_product
from binomax.identities import (
    DEFAULT_S_GRID,
    IdentityId,
    IdentityParams,
    binomial_invert,
    default_n_values,
    eval_basic_lhs,
    eval_basic_rhs,
    eval_derivative_identity,
    eval_f_jet,
    eval_g_jet,
    eval_general_m,
    eval_inversion_first,
    eval_inversion_second,
    eval_squared_identity,
    sweep,
    tail_prob_exact,
    tail_prob_via_conditioning,
    tail_prob_via_derivatives,
    verify,
)
from binomax.jets import Jet

ONE = Fraction(1)
SMALL_S = [Fraction(1, 7), Fraction(1), Fraction(3, 2), Fraction(10)]


class TestBasicIdentity:
    def test_lhs_hand_values(self):
        assert eval_basic_lhs(ONE, 0) == 1
        assert eval_basic_lhs(ONE, 1) == Fraction(1, 2)
        # 1 - 2 + 3/2 - 2/5
        assert eval_basic_lhs(Fraction(2), 3) == Fraction(1, 10)

    def test_rhs_hand_values(self):
        assert eval_basic_rhs(ONE, 1) == Fraction(1, 2)
        assert eval_basic_rhs(Fraction(2), 3) == Fraction(1, 10)  # (1/3)(2/4)(3/5)
        assert eval_basic_rhs(ONE, 2) == Fraction(1, 3)  # (1/2)(2/3)

    def test_sides_equal_on_grid(self):
        for s in SMALL_S:
            for n in range(41):
                assert eval_basic_lhs(s, n) == eval_basic_rhs(s, n)

    def test_beta_form_equivalence(self):
        for s in SMALL_S:
            for n in range(25):
                assert eval_basic_rhs(s, n) == Fraction(factorial(n)) / rising_product(s, n)

    def test_positive_s_required(self):
        for bad in (Fraction(0), Fraction(-3, 2)):
            with pytest.raises(NonPositiveS):
                eval_basic_lhs(bad, 2)
            with pytest.raises(NonPositiveS):
                eval_basic_rhs(bad, 2)


class TestTransformJets:
    def test_f_jet_n1(self):
        jet = eval_f_jet(ONE, 1, 1)  # transform is 1/(s+1)
        assert jet.value == Fraction(1, 2)
        assert jet.derivative(1) == Fraction(-1, 4)

    def test_f_jet_n0_is_constant_one(self):
        assert eval_f_jet(ONE, 0, 2).coeffs == (1, 0, 0)

    def test_f_jet_n2_log_derivative(self):
        jet = eval_f_jet(ONE, 2, 1)
        assert jet.value == Fraction(1, 3)
        assert jet.derivative(1) == -Fraction(1, 3) * (Fraction(1, 2) + Fraction(1, 3))

    def test_g_jet_values(self):
        jet = eval_g_jet(ONE, 1, 1)
        assert jet.coeffs == (Fraction(1, 2), Fraction(-1, 4))
        assert eval_g_jet(Fraction(9, 2), 0, 3).coeffs == (1, 0, 0, 0)
        jet2 = eval_g_jet(ONE, 2, 1)
        assert jet2.value == Fraction(1, 3)
        assert jet2.derivative(1) == Fraction(-5, 18)

    def test_f_and_g_jets_agree_to_order_six(self):
        # equal functions must have equal derivatives of every order
        for s in (Fraction(1, 7), ONE, Fraction(10)):
            for n in (0, 1, 2, 5, 10, 20):
                f = eval_f_jet(s, n, 6)
                g = eval_g_jet(s, n, 6)
                for k in range(7):
                    assert f.derivative(k) == g.derivative(k)

    def test_jet_order_truncation_consistent(self):
        # a lower-order jet is the truncation of a higher-order one
        full_f = eval_f_jet(Fraction(3, 2), 7, 6)
        full_g = eval_g_jet(Fraction(3, 2), 7, 6)
        for order in range(7):
            assert eval_f_jet(Fraction(3, 2), 7, order).coeffs == full_f.coeffs[: order + 1]
            assert eval_g_jet(Fraction(3, 2), 7, order).coeffs == full_g.coeffs[: order + 1]


class TestTailProbability:
    def test_hand_values(self):
        assert tail_prob_exact(1, ONE, 2) == Fraction(1, 3)
        assert tail_prob_exact(2, ONE, 1) == Fraction(3, 4)  # 1 - (1/2)^2
        assert tail_prob_exact(5, Fraction(3), 0) == 1

    def test_m1_reduces_to_transform(self):
        for s in SMALL_S:
            for n in range(21):
                assert tail_prob_exact(1, s, n) == eval_basic_rhs(s, n)

    def test_routes_agree_independently(self):
        for s in SMALL_S:
            for n in range(0, 16, 3):
                for m in range(1, 9):
                    assert tail_prob_via_derivatives(m, s, n) == tail_prob_via_conditioning(m, s, n)

    def test_monotone_in_m_n_s(self):
        # more gamma stages -> larger tail; more exponentials or larger
        # rate -> smaller tail
        for n in (1, 3, 7):
            values = [tail_prob_exact(m, ONE, n) for m in range(1, 6)]
            assert all(a < b for a, b in zip(values, values[1:]))
        for m in (1, 4):
            values = [tail_prob_exact(m, ONE, n) for n in range(1, 8)]
            assert all(a > b for a, b in zip(values, values[1:]))
        for m in (2,):
            values = [tail_prob_exact(m, s, 3) for s in (Fraction(1, 2), ONE, Fraction(3), Fraction(10))]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_in_unit_interval(self):
        for s in SMALL_S:
            for m in (1, 3, 8):
                for n in (0, 1, 10, 40):
                    p = tail_prob_exact(m, s, n)
                    assert 0 < p <= 1
                    assert (p == 1) == (n == 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tail_prob_exact(0, ONE, 1)
        with pytest.raises(NonPositiveS):
            tail_prob_exact(1, Fraction(-1), 1)

    @pytest.mark.parametrize("route", [tail_prob_via_derivatives, tail_prob_via_conditioning, tail_prob_exact])
    def test_m_checked_before_s_and_n(self, route):
        # (m, s, n) are validated in argument order
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            route(0, Fraction(-1), -1)


class TestSquaredIdentity:
    def test_hand_values(self):
        assert eval_squared_identity(ONE, 0) == (1, 1)
        assert eval_squared_identity(ONE, 1) == (Fraction(3, 4), Fraction(3, 4))
        assert eval_squared_identity(ONE, 2) == (Fraction(11, 18), Fraction(11, 18))

    def test_equals_f_minus_s_fprime(self):
        for s in SMALL_S:
            for n in range(16):
                lhs, rhs = eval_squared_identity(s, n)
                jet = eval_f_jet(s, n, 1)
                assert lhs == jet.value - s * jet.derivative(1)
                gjet = eval_g_jet(s, n, 1)
                assert rhs == gjet.value - s * gjet.derivative(1)

    def test_sides_equal_on_grid(self):
        for s in SMALL_S:
            for n in range(31):
                lhs, rhs = eval_squared_identity(s, n)
                assert lhs == rhs


class TestGeneralM:
    def test_hand_values(self):
        assert eval_general_m(ONE, 2, 1) == (Fraction(1, 3), Fraction(1, 3))
        assert eval_general_m(ONE, 1, 2) == (Fraction(3, 4), Fraction(3, 4))
        assert eval_general_m(Fraction(2), 1, 1) == (Fraction(1, 3), Fraction(1, 3))

    def test_n_zero_rejected(self):
        with pytest.raises(NRequired):
            eval_general_m(ONE, 0, 1)

    def test_lhs_is_tail_probability(self):
        for s in SMALL_S:
            for n in (1, 2, 6):
                for m in (1, 2, 5):
                    lhs, rhs = eval_general_m(s, n, m)
                    assert lhs == rhs == tail_prob_exact(m, s, n)


class TestInversionIdentities:
    def test_first_hand_values(self):
        assert eval_inversion_first(ONE, 0) == (1, 1)
        assert eval_inversion_first(ONE, 2) == (Fraction(1, 3), Fraction(1, 3))
        assert eval_inversion_first(Fraction(3), 1) == (Fraction(3, 4), Fraction(3, 4))

    def test_second_hand_values(self):
        assert eval_inversion_second(ONE, 1) == (Fraction(1, 4), Fraction(1, 4))
        assert eval_inversion_second(ONE, 2) == (Fraction(1, 9), Fraction(1, 9))
        assert eval_inversion_second(ONE, 0) == (1, 1)

    def test_sides_equal_on_grid(self):
        for s in SMALL_S:
            for n in range(31):
                lhs1, rhs1 = eval_inversion_first(s, n)
                lhs2, rhs2 = eval_inversion_second(s, n)
                assert lhs1 == rhs1
                assert lhs2 == rhs2


class TestDerivativeIdentity:
    def test_hand_values(self):
        assert eval_derivative_identity(ONE, 0) == (0, 0)
        assert eval_derivative_identity(ONE, 1) == (Fraction(1, 4), Fraction(1, 4))
        assert eval_derivative_identity(ONE, 2) == (Fraction(5, 18), Fraction(5, 18))

    def test_both_sides_equal_minus_g_prime(self):
        for s in SMALL_S:
            for n in range(21):
                lhs, rhs = eval_derivative_identity(s, n)
                oracle = -eval_g_jet(s, n, 1).derivative(1)
                assert lhs == oracle
                assert rhs == oracle


class TestBinomialInvert:
    def test_constant_sequence_inverts_to_delta(self):
        assert binomial_invert([ONE] * 6) == [1, 0, 0, 0, 0, 0]

    def test_transform_of_product_sequence(self):
        seq = [eval_basic_rhs(ONE, k) for k in range(3)]
        assert seq == [1, Fraction(1, 2), Fraction(1, 3)]
        # inverting the product side returns s/(s+n) at s=1
        assert binomial_invert(seq) == [ONE / (ONE + n) for n in range(3)]

    @settings(max_examples=60)
    @given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40),
                    min_size=1, max_size=12))
    def test_involution(self, seq):
        assert binomial_invert(binomial_invert(seq)) == [Fraction(v) for v in seq]

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            binomial_invert([])


class TestVerifyAndSweep:
    def test_verify_basic_report(self):
        report = verify(IdentityId.BASIC, IdentityParams(s=Fraction(2), n=3))
        assert report.lhs == report.rhs == Fraction(1, 10)
        assert report.equal is True

    def test_verify_propagates_preconditions(self):
        with pytest.raises(NRequired):
            verify(IdentityId.GENERAL_M, IdentityParams(s=ONE, n=0, m=1))

    def test_verify_squared(self):
        report = verify(IdentityId.SQUARED, IdentityParams(s=ONE, n=2))
        assert report.equal and report.lhs == Fraction(11, 18)

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            verify("not_an_identity", IdentityParams(s=ONE, n=1))

    def test_params_validation(self):
        with pytest.raises(NonPositiveS):
            IdentityParams(s=Fraction(-1), n=1)
        with pytest.raises(ValueError):
            IdentityParams(s=ONE, n=1, m=0)
        with pytest.raises(ValueError):
            IdentityParams(s=ONE, n=-1)

    def test_default_n_values(self):
        assert default_n_values(IdentityId.BASIC)[0] == 0
        assert default_n_values(IdentityId.GENERAL_M)[0] == 1

    def test_sweep_small_grid_all_equal_and_sorted(self):
        reports = sweep(
            identities=[IdentityId.BASIC, IdentityId.GENERAL_M],
            s_grid=[ONE, Fraction(1, 2)],
            n_values=[3, 1, 2],
            m_values=[2, 1],
        )
        assert all(r.equal for r in reports)
        keys = [
            (list(IdentityId).index(r.identity), r.params.n, r.params.m, r.params.s)
            for r in reports
        ]
        assert keys == sorted(keys)
        basics = [r for r in reports if r.identity is IdentityId.BASIC]
        generals = [r for r in reports if r.identity is IdentityId.GENERAL_M]
        assert len(basics) == 6       # m collapses to 1 for m-independent identities
        assert len(generals) == 12    # 3 n * 2 m * 2 s

    @pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
    @pytest.mark.parametrize("m_values", [[3, 1, 3], [2, 5]], ids=["repeated", "gapped"])
    def test_sweep_matches_per_point_verify(self, identity, m_values):
        # each (identity, s, n) is evaluated once for all m; the rows must
        # be exactly those of verifying every point on its own, duplicates
        # and ordering included
        s_grid = [Fraction(1, 2), Fraction(3), Fraction(1, 2), Fraction(1000, 3)]
        n_values = [4, 1, 7]
        reports = sweep([identity], s_grid, n_values, m_values)
        ms = m_values if identity in identities.USES_M else [1]
        expected = sorted(
            (verify(identity, IdentityParams(s, n, m)) for n in n_values for m in ms for s in s_grid),
            key=lambda r: (r.params.n, r.params.m, r.params.s),
        )
        assert reports == expected
        assert all(r.equal for r in reports)

    def test_sweep_builds_one_jet_per_s_and_n(self, monkeypatch):
        calls = []
        real = identities.eval_f_jet

        def counting(s, n, order):
            calls.append((s, n, order))
            return real(s, n, order)

        monkeypatch.setattr(identities, "eval_f_jet", counting)
        s_grid = [Fraction(1, 7), Fraction(2), Fraction(10)]
        reports = sweep([IdentityId.TAIL_DERIVATIVE_FORM], s_grid, [3, 0, 5], [3, 1, 3, 2])
        assert len(reports) == 3 * 4 * 3
        assert sorted(calls) == sorted((s, n, 2) for s in s_grid for n in (3, 0, 5))

    def test_sweep_tail_routes_stay_independent(self, monkeypatch):
        # shifting the jet's value moves the derivative route only: the
        # conditioning route never reads the jet
        real = identities.eval_f_jet

        def shifted(s, n, order):
            jet = real(s, n, order)
            return Jet(jet.base_point, (jet.coeffs[0] + 1,) + jet.coeffs[1:])

        grid = ([IdentityId.TAIL_DERIVATIVE_FORM], [Fraction(1, 2), Fraction(3)], [1, 4], [2, 5, 1])
        honest = sweep(*grid)
        monkeypatch.setattr(identities, "eval_f_jet", shifted)
        broken = sweep(*grid)
        assert [r.rhs for r in broken] == [r.rhs for r in honest]
        assert [r.lhs for r in broken] == [r.lhs + 1 for r in honest]

    def test_sweep_first_invalid_point_raises_as_per_point(self):
        # points are met in (identity, n, m, s) order; the first bad one
        # decides the error, its own parameters before the identity's domain
        with pytest.raises(NRequired, match="n >= 1"):
            sweep([IdentityId.GENERAL_M], [ONE, Fraction(-1)], [0], [1])
        with pytest.raises(NonPositiveS, match="got -1"):
            sweep([IdentityId.GENERAL_M], [Fraction(-1), ONE], [0], [1])
        with pytest.raises(NonPositiveS, match="got 0"):
            sweep([IdentityId.TAIL_DERIVATIVE_FORM], [ONE, Fraction(0)], [1], [1, 0])
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            sweep([IdentityId.TAIL_DERIVATIVE_FORM], [ONE, Fraction(2)], [1], [1, 0])
        with pytest.raises(NRequired):
            sweep([IdentityId.BASIC, IdentityId.GENERAL_M], [ONE], [0, 1], [1])

    def test_sweep_defaults_cover_every_identity(self):
        reports = sweep(s_grid=[ONE], n_values=[1, 2], m_values=[1, 2])
        seen = {r.identity for r in reports}
        assert seen == set(IdentityId)
        assert all(r.equal for r in reports)


def test_full_default_grid_spot_slice():
    # one full-depth slice of the default grid (all s, fixed n) stays exact
    for s in DEFAULT_S_GRID:
        assert eval_basic_lhs(s, 100) == eval_basic_rhs(s, 100)


def test_far_beyond_float_reach():
    # at n = 200 the alternating sum is hopeless in float64 (terms reach
    # ~C(200,100) ~ 1e59 while the value is ~1e-53); exact arithmetic is not
    s = Fraction(1000, 3)
    value = eval_basic_lhs(s, 200)
    assert value == eval_basic_rhs(s, 200)
    assert 0 < value < Fraction(1, 10**40)
