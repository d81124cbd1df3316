import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from binomax import identities
from binomax.errors import (
    EmptySequence,
    InternalRouteMismatch,
    NonPositiveS,
    NRequired,
    UnknownIdentity,
)
from binomax.identities import (
    DEFAULT_S_GRID,
    IdentityId,
    IdentityParams,
    _conditioning_tails,
    _derivative_tails,
    binomial_invert,
    eval_basic_lhs,
    eval_basic_rhs,
    eval_f_jet,
    eval_g_jet,
    sweep,
    tail_prob_exact,
    verify,
)
from binomax.jets import Jet
from binomax.montecarlo import MIN_SAMPLES, RngConfig, estimate_tail_prob

ONE = Fraction(1)
SMALL_S = [Fraction(1, 7), Fraction(1), Fraction(3, 2), Fraction(10)]


def sides(identity, s, n, m=1):
    report = verify(identity, IdentityParams(s, n, m))
    return report.lhs, report.rhs


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
                rising = math.prod((s + k for k in range(1, n + 1)), start=Fraction(1))
                assert eval_basic_rhs(s, n) == Fraction(math.factorial(n)) / rising

    @given(st.integers(0, 60), st.one_of(
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
        st.builds(Fraction, st.integers(1, 2**300), st.integers(2**200 + 1, 2**260)),
        st.builds(Fraction, st.integers(2**200 + 1, 2**260), st.integers(1, 2**300)),
    ))
    @example(0, Fraction(3, 7))
    @example(60, Fraction(2**201 + 1, 2**250 - 1))
    def test_rhs_matches_fraction_product(self, n, s):
        expected = math.prod((Fraction(k) / (s + k) for k in range(1, n + 1)), start=Fraction(1))
        result = eval_basic_rhs(s, n)
        assert type(result) is Fraction
        assert result == expected

    @pytest.mark.parametrize("s", [1.557, Fraction(706, 525)])
    def test_rhs_pair_is_the_left_fold_product(self, s):
        # the float reference reads this pair; its denominator is built as a tree
        p, q = Fraction(s).numerator, Fraction(s).denominator
        for n in (0, 1, 2, 3, 64, 1000, 5000):
            den = 1
            for k in range(1, n + 1):
                den *= p + k * q
            assert identities._basic_rhs_pair(s, n) == (math.factorial(n) * q ** n, den)

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
                    lhs, rhs = sides(IdentityId.TAIL_DERIVATIVE_FORM, s, n, m)
                    assert lhs == rhs  # derivative route == conditioning route

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

    @pytest.mark.parametrize("route", [tail_prob_exact])
    def test_m_checked_before_s_and_n(self, route):
        # (m, s, n) are validated in argument order
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            route(0, Fraction(-1), -1)

    @pytest.mark.parametrize("route", [tail_prob_exact])
    def test_bool_shape_rejected(self, route):
        # bool subclasses int, but True is not a shape
        with pytest.raises(ValueError, match="m must be a positive integer, got True"):
            route(True, ONE, 2)


class TestSquaredIdentity:
    def test_hand_values(self):
        assert sides(IdentityId.SQUARED, ONE, 0) == (1, 1)
        assert sides(IdentityId.SQUARED, ONE, 1) == (Fraction(3, 4), Fraction(3, 4))
        assert sides(IdentityId.SQUARED, ONE, 2) == (Fraction(11, 18), Fraction(11, 18))

    def test_equals_f_minus_s_fprime(self):
        for s in SMALL_S:
            for n in range(16):
                lhs, rhs = sides(IdentityId.SQUARED, s, n)
                jet = eval_f_jet(s, n, 1)
                assert lhs == jet.value - s * jet.derivative(1)
                gjet = eval_g_jet(s, n, 1)
                assert rhs == gjet.value - s * gjet.derivative(1)

    def test_sides_equal_on_grid(self):
        for s in SMALL_S:
            for n in range(31):
                lhs, rhs = sides(IdentityId.SQUARED, s, n)
                assert lhs == rhs


class TestGeneralM:
    def test_hand_values(self):
        assert sides(IdentityId.GENERAL_M, ONE, 2, 1) == (Fraction(1, 3), Fraction(1, 3))
        assert sides(IdentityId.GENERAL_M, ONE, 1, 2) == (Fraction(3, 4), Fraction(3, 4))
        assert sides(IdentityId.GENERAL_M, Fraction(2), 1, 1) == (Fraction(1, 3), Fraction(1, 3))

    def test_n_zero_rejected(self):
        with pytest.raises(NRequired, match="the general_m identity requires n >= 1"):
            sides(IdentityId.GENERAL_M, ONE, 0, 1)
        with pytest.raises(NRequired, match="the general_m identity requires n >= 1"):
            sweep([IdentityId.GENERAL_M], [ONE], [0], [1])

    def test_lhs_is_tail_probability(self):
        for s in SMALL_S:
            for n in (1, 2, 6):
                for m in (1, 2, 5):
                    lhs, rhs = sides(IdentityId.GENERAL_M, s, n, m)
                    assert lhs == rhs == tail_prob_exact(m, s, n)


class TestInversionIdentities:
    def test_first_hand_values(self):
        assert sides(IdentityId.INVERSION_FIRST, ONE, 0) == (1, 1)
        assert sides(IdentityId.INVERSION_FIRST, ONE, 2) == (Fraction(1, 3), Fraction(1, 3))
        assert sides(IdentityId.INVERSION_FIRST, Fraction(3), 1) == (Fraction(3, 4), Fraction(3, 4))

    def test_second_hand_values(self):
        assert sides(IdentityId.INVERSION_SECOND, ONE, 1) == (Fraction(1, 4), Fraction(1, 4))
        assert sides(IdentityId.INVERSION_SECOND, ONE, 2) == (Fraction(1, 9), Fraction(1, 9))
        assert sides(IdentityId.INVERSION_SECOND, ONE, 0) == (1, 1)

    def test_sides_equal_on_grid(self):
        for s in SMALL_S:
            for n in range(31):
                lhs1, rhs1 = sides(IdentityId.INVERSION_FIRST, s, n)
                lhs2, rhs2 = sides(IdentityId.INVERSION_SECOND, s, n)
                assert lhs1 == rhs1
                assert lhs2 == rhs2


class TestDerivativeIdentity:
    def test_hand_values(self):
        assert sides(IdentityId.DERIVATIVE_FG, ONE, 0) == (0, 0)
        assert sides(IdentityId.DERIVATIVE_FG, ONE, 1) == (Fraction(1, 4), Fraction(1, 4))
        assert sides(IdentityId.DERIVATIVE_FG, ONE, 2) == (Fraction(5, 18), Fraction(5, 18))

    def test_both_sides_equal_minus_g_prime(self):
        for s in SMALL_S:
            for n in range(21):
                lhs, rhs = sides(IdentityId.DERIVATIVE_FG, s, n)
                oracle = -eval_g_jet(s, n, 1).derivative(1)
                assert lhs == oracle
                assert rhs == oracle


@given(st.integers(0, 60), st.one_of(
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
    st.builds(Fraction, st.integers(1, 2**300), st.integers(2**200 + 1, 2**260)),
))
@example(0, Fraction(3, 7))
def test_reciprocal_sums_match_fraction_sums(n, s):
    # the squared identity's right side and the derivative identity's left
    # side, against their plain one-Fraction-per-term sums
    product = eval_basic_rhs(s, n)
    squared_rhs = product * sum((s / (s + j) for j in range(n + 1)), Fraction(0))
    derivative_lhs = product * sum((1 / (s + j) for j in range(1, n + 1)), Fraction(0))
    assert sides(IdentityId.SQUARED, s, n)[1] == squared_rhs
    assert sides(IdentityId.DERIVATIVE_FG, s, n)[0] == derivative_lhs


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
        with pytest.raises(UnknownIdentity):  # on the default n grid too
            sweep(["not_an_identity"], [ONE])
        with pytest.raises(UnknownIdentity):  # and when an empty grid leaves nothing to evaluate
            sweep(["not_an_identity"], [ONE], [])
        with pytest.raises(UnknownIdentity):
            sweep(["not_an_identity"], [], [1])

    def test_params_validation(self):
        with pytest.raises(NonPositiveS):
            IdentityParams(s=Fraction(-1), n=1)
        with pytest.raises(ValueError):
            IdentityParams(s=ONE, n=1, m=0)
        with pytest.raises(ValueError):
            IdentityParams(s=ONE, n=-1)

    def test_params_reject_bool(self):
        with pytest.raises(ValueError, match="m must be a positive integer, got True"):
            IdentityParams(s=ONE, n=2, m=True)
        with pytest.raises(ValueError, match="n must be a non-negative integer, got False"):
            IdentityParams(s=ONE, n=False)

    def test_default_n_values(self):
        reports = sweep([IdentityId.BASIC, IdentityId.GENERAL_M], [ONE], m_values=[1])
        first_n = {identity: min(r.params.n for r in reports if r.identity is identity)
                   for identity in (IdentityId.BASIC, IdentityId.GENERAL_M)}
        assert first_n == {IdentityId.BASIC: 0, IdentityId.GENERAL_M: 1}
        # alone, general_m's default grid still starts at its smallest n
        reports = sweep([IdentityId.GENERAL_M], [ONE], m_values=[1])
        assert [r.params.n for r in reports] == list(range(1, identities.DEFAULT_N_MAX + 1))

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
        # be exactly those of verifying every distinct point on its own, in
        # the canonical (n, m, s) order
        s_grid = [Fraction(1, 2), Fraction(3), Fraction(1, 2), Fraction(1000, 3)]
        n_values = [4, 1, 7]
        reports = sweep([identity], s_grid, n_values, m_values)
        ms = m_values if identity in identities.USES_M else [1]
        expected = [verify(identity, IdentityParams(s, n, m))
                    for n in sorted(set(n_values)) for m in sorted(set(ms))
                    for s in sorted(set(s_grid))]
        assert reports == expected
        assert all(r.equal for r in reports)

    def test_sweep_builds_one_jet_column_per_s(self, monkeypatch):
        calls = []
        real = identities._f_jet_column

        def counting(s, ns, order):
            ns = list(ns)
            calls.append((s, sorted(set(ns)), order))
            return real(s, ns, order)

        monkeypatch.setattr(identities, "_f_jet_column", counting)
        s_grid = [Fraction(1, 7), Fraction(2), Fraction(10)]
        reports = sweep([IdentityId.TAIL_DERIVATIVE_FORM], s_grid, [3, 0, 5], [3, 1, 3, 2])
        assert len(reports) == 3 * 3 * 3
        assert sorted(calls) == sorted((s, [0, 3, 5], 2) for s in s_grid)

    def test_sweep_hands_row_functions_distinct_grids(self, monkeypatch):
        # sweep makes the grids canonical once, so the kernels need not: the
        # derivative route gets distinct n and ascending distinct shapes,
        # and the reports hold one row per distinct point
        seen = []
        real = identities._derivative_tails

        def spy(s, ns, ms):
            seen.append((sorted(ns), len(ns), list(ms)))
            return real(s, ns, ms)

        monkeypatch.setattr(identities, "_derivative_tails", spy)
        identity = IdentityId.TAIL_DERIVATIVE_FORM
        reports = sweep([identity], [ONE], [3, 1], [3, 1, 3])
        assert seen == [([1, 3], 2, [1, 3])]
        assert reports == [verify(identity, IdentityParams(ONE, n, m))
                           for n in [1, 3] for m in [1, 3]]
        assert len(reports) == 4

    def test_sweep_reads_each_grid_as_its_set(self):
        # repeated or unsorted values, identities included, give the
        # reports of the set: one per distinct point, in canonical order
        tail, basic = IdentityId.TAIL_DERIVATIVE_FORM, IdentityId.BASIC
        half = Fraction(1, 2)
        reports = sweep([tail, basic, tail], [Fraction(3), half, Fraction(3)], [4, 1, 4], [2, 1, 2])
        assert reports == sweep([basic, tail], [half, Fraction(3)], [1, 4], [1, 2])
        assert len(reports) == 2 * 2 + 2 * 2 * 2

    def test_sweep_tail_routes_stay_independent(self, monkeypatch):
        # shifting the jet's value moves the derivative route only: the
        # conditioning route never reads the jet
        real = identities._f_jet_column

        def shifted(s, ns, order):
            return {n: Jet(jet.base_point, (jet.coeffs[0] + 1,) + jet.coeffs[1:])
                    for n, jet in real(s, ns, order).items()}

        grid = ([IdentityId.TAIL_DERIVATIVE_FORM], [Fraction(1, 2), Fraction(3)], [1, 4], [2, 5, 1])
        honest = sweep(*grid)
        monkeypatch.setattr(identities, "_f_jet_column", shifted)
        broken = sweep(*grid)
        assert [r.rhs for r in broken] == [r.rhs for r in honest]
        assert [r.lhs for r in broken] == [r.lhs + 1 for r in honest]

    def test_tail_route_mismatch_raises(self, monkeypatch):
        # a defect in the derivative route alone: tail_prob_exact must refuse
        # to return either value, and the Monte Carlo reference passes it on
        real = identities._f_jet_column

        def shifted(s, ns, order):
            return {n: Jet(jet.base_point, (jet.coeffs[0] + 1,) + jet.coeffs[1:])
                    for n, jet in real(s, ns, order).items()}

        monkeypatch.setattr(identities, "_f_jet_column", shifted)
        with pytest.raises(InternalRouteMismatch, match="routes disagree at m=2, s=1/2, n=3"):
            tail_prob_exact(2, Fraction(1, 2), 3)
        with pytest.raises(InternalRouteMismatch):
            estimate_tail_prob(2, Fraction(1, 2), 3, MIN_SAMPLES, RngConfig(1, 0))

    def test_sweep_checks_grids_in_argument_order(self):
        # every s, then every n, then every m, then each identity's domain
        with pytest.raises(NonPositiveS, match="got -1"):
            sweep([IdentityId.GENERAL_M], [ONE, Fraction(-1)], [0], [1])
        with pytest.raises(NonPositiveS, match="got -1"):
            sweep([IdentityId.GENERAL_M], [Fraction(-1), ONE], [0], [1])
        with pytest.raises(NonPositiveS, match="got 0"):
            sweep([IdentityId.TAIL_DERIVATIVE_FORM], [ONE, Fraction(0)], [1], [1, 0])
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            sweep([IdentityId.TAIL_DERIVATIVE_FORM], [ONE, Fraction(2)], [1], [1, 0])
        with pytest.raises(NRequired):
            sweep([IdentityId.BASIC, IdentityId.GENERAL_M], [ONE], [0, 1], [1])
        # a grid is checked even where no point reads it
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            sweep([IdentityId.BASIC], [ONE], [1], [0])
        with pytest.raises(NonPositiveS, match="got -1"):
            sweep([IdentityId.BASIC], [Fraction(-1)], [], [1])

    @pytest.mark.parametrize("grid", ["s_grid", "n_values", "m_values"])
    def test_sweep_reads_a_generator_grid_once_for_all_identities(self, grid):
        chosen = [IdentityId.BASIC, IdentityId.GENERAL_M, IdentityId.TAIL_DERIVATIVE_FORM]
        grids = {"s_grid": [ONE, Fraction(1, 2)], "n_values": [1, 2], "m_values": [1, 3]}
        expected = sweep(chosen, **grids)
        grids[grid] = (v for v in grids[grid])
        assert sweep(chosen, **grids) == expected
        assert len(expected) == 2 * 2 + 2 * (2 * 2 * 2)

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


# Terms for the alternating-sum kernel: integers, small fractions of
# either sign, and fractions whose denominators exceed 2^200.
_TERMS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    st.builds(Fraction, st.integers(-2**300, 2**300), st.integers(2**200 + 1, 2**260)),
)


@given(st.integers(0, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_TERMS, min_size=n + 1, max_size=n + 1))),
    st.lists(st.integers(1, 2**64), min_size=41, max_size=41))
@example((0, [Fraction(-3, 7)]), [1] * 41)
@example((5, [Fraction(2, 3)] * 6), [1] * 41)
@example((3, [-1, -2, 5, -7]), [1] * 41)
@example((2, [Fraction(1, 2**201 + 1), Fraction(-3, 2**250 - 1), Fraction(5, 3**130)]), [1] * 41)
@example((3, [Fraction(2, 3), Fraction(2, 3), 5, Fraction(-1, 6)]), [2**64, 1, 3, 2**64])
def test_alternating_matches_fraction_sum(case, scales):
    # Each term k enters as the pair (g*num, g*den), g = scales[k]: lowest
    # terms when g = 1, and not in lowest terms otherwise.
    n, terms = case
    expected = sum((-1) ** k * math.comb(n, k) * t for k, t in enumerate(terms))
    pairs = [(g * t.numerator, g * t.denominator) for g, t in zip(scales, terms)]
    [result] = identities._binomial_sums([n], [pairs])[n]
    assert type(result) is Fraction
    assert result == expected


@given(st.integers(1, 40), _TERMS)
def test_alternating_cancels_constant_terms(n, term):
    sums = identities._binomial_sums(range(1, n + 1), [[term.as_integer_ratio()] * (n + 1)])
    assert sums == {k: [0] for k in range(1, n + 1)}


def test_alternating_rejects_a_short_term_sequence():
    with pytest.raises(ValueError):
        identities._binomial_sums([3], [[(1, 1)] * 3])
    with pytest.raises(ValueError):  # one column short among several
        identities._binomial_sums([1, 3], [[(1, 1)] * 4, [(1, 1)] * 5])


def test_signed_binomials_match_math_comb():
    for n in range(61):
        expected = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
        assert identities._signed_binomials(n) == expected


B = identities._BLOCK


@given(st.lists(st.sampled_from([0, 1, 5, B - 1, B, B + 1, 2 * B + 1, 3 * B + 2]) | st.integers(0, 3 * B + 2),
                min_size=1, max_size=5),
       st.integers(1, 3), st.integers(0, 2**32))
@example([B - 1, B, B + 1, 2 * B + 1], 2, 0)
@example([0, 3 * B + 2, 5, 5], 3, 1)
def test_blocked_kernel_matches_fraction_sum(ns, width, seed):
    # Random integer pairs, some sharing factors and some far past a machine
    # word, against one Fraction per term; the grid may be sparse, unsorted
    # and duplicated, and n may sit on either side of a block edge.
    rng = random.Random(seed)
    size = max(ns) + 1

    def pair():
        a = rng.choice([rng.randint(-9, 9), rng.randint(-2**90, 2**90)])
        return a, rng.choice([rng.randint(1, 12), rng.randint(1, 2**70)])

    columns = [[pair() for _ in range(size)] for _ in range(width)]
    sums = identities._binomial_sums(ns, columns)
    assert sorted(sums) == sorted(set(ns))
    for n in ns:
        expected = [sum((Fraction((-1) ** k * math.comb(n, k) * a, b)
                         for k, (a, b) in enumerate(column[:n + 1])), Fraction(0))
                    for column in columns]
        assert sums[n] == expected
        assert all(type(value) is Fraction for value in sums[n])


_POOL_S = [Fraction(1, 7), Fraction(1), Fraction(5, 2), Fraction(951, 832), Fraction(1000, 3)]


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
@settings(max_examples=12, deadline=None)
@given(st.lists(st.sampled_from(_POOL_S), min_size=1, max_size=3),
       st.lists(st.integers(0, 12), min_size=1, max_size=4),
       st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_sweep_matches_verify_on_random_grids(identity, s_grid, n_values, m_values):
    # sweep evaluates each (identity, s) once for all n and m; every distinct
    # point must read as verifying it on its own, duplicated s and n included
    if identity is IdentityId.GENERAL_M:
        n_values = [n + 1 for n in n_values]
    reports = sweep([identity], s_grid, n_values, m_values)
    ms = m_values if identity in identities.USES_M else [1]
    expected = [verify(identity, IdentityParams(s, n, m))
                for n in sorted(set(n_values)) for m in sorted(set(ms))
                for s in sorted(set(s_grid))]
    assert reports == expected
    assert all(r.equal for r in reports)


@pytest.mark.parametrize("route,bound_mb", [(_derivative_tails, 25), (_conditioning_tails, 5)])
def test_large_n_tail_peak_memory_is_bounded(route, bound_mb):
    # Blocks of terms on their own denominators keep memory linear in n.  The
    # peaks here are about 10 MB and 1.3 MB; with one denominator over all
    # 1001 terms they are about 110 MB and 12 MB.
    tracemalloc.start()
    try:
        value = route(Fraction(951, 832), [1000], [8])[1000][8]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < value < 1
    assert peak < bound_mb * 2**20


@pytest.mark.parametrize("identity,bound_mb", [(IdentityId.INVERSION_FIRST, 3),
                                               (IdentityId.INVERSION_SECOND, 6)],
                         ids=["inversion_first-3", "inversion_second-6"])
def test_large_n_inversion_peak_memory_is_bounded(identity, bound_mb):
    # The product-side terms stream into the blocked kernel.  The peaks here
    # are about 1.6 MB and 3.2 MB; with every term held in a list before
    # blocking they are about 3.8 MB and 10.8 MB.
    tracemalloc.start()
    try:
        lhs, rhs = sides(identity, Fraction(951, 832), 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lhs == rhs
    assert peak < bound_mb * 2**20
