"""Jets kept as integer numerators over one denominator, against a plain
Fraction implementation of the same truncated-series recurrences."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from binomax import identities
from binomax.identities import eval_f_jet, eval_g_jet
from binomax.errors import MixedJets
from binomax.jets import Jet, JetBlock, jet_constant, jet_variable


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_mul(a, b):
    return tuple(sum((a[j] * b[i - j] for j in range(i + 1)), Fraction(0)) for i in range(len(a)))


def ref_div(a, b):
    q = []
    for i in range(len(a)):
        q.append((a[i] - sum((b[j] * q[i - j] for j in range(1, i + 1)), Fraction(0))) / b[0])
    return tuple(q)


# Rationals p/q with |p| and q up to 2^200, so numerators and the shared
# denominator are far past machine words.
big_rationals = st.builds(Fraction, st.integers(-2**200, 2**200), st.integers(1, 2**200))


@st.composite
def coefficient_pairs(draw):
    size = draw(st.integers(1, 6))
    coeffs = st.lists(big_rationals, min_size=size, max_size=size).map(tuple)
    a, b = draw(coeffs), draw(coeffs)
    if b[0] == 0:
        b = (Fraction(1),) + b[1:]
    return a, b


def assert_normalised(jet):
    for c in jet.coeffs:
        assert type(c) is Fraction
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


class TestAgainstFractionReference:
    @given(coefficient_pairs())
    def test_add_mul_div(self, pair):
        a, b = pair
        ja, jb = Jet(None, a), Jet(None, b)
        for jet, expected in [(ja + jb, ref_add(a, b)), (ja * jb, ref_mul(a, b)),
                              (ja / jb, ref_div(a, b))]:
            assert jet.coeffs == expected
            assert_normalised(jet)

    @given(coefficient_pairs(), big_rationals)
    def test_chained_operands_not_in_lowest_terms(self, pair, c):
        # Results of earlier operations feed later ones unnormalised.
        a, b = pair
        ja, jb = Jet(None, a), Jet(None, b)
        jet = (ja * jb + ja * c) / (jb + jb) - c / jb
        scaled = tuple(x * c for x in a)
        expected = ref_add(ref_div(ref_add(ref_mul(a, b), scaled), ref_add(b, b)),
                           tuple(-x for x in ref_div((c,) + (Fraction(0),) * (len(a) - 1), b)))
        assert jet.coeffs == expected
        assert_normalised(jet)

    @given(st.integers(1, 2**200), st.integers(1, 2**200), st.integers(0, 7))
    def test_term_jet_at_a_large_point(self, p, q, order):
        s = Fraction(p, q)
        x = jet_variable(s, order)
        var = (s, Fraction(1)) + (Fraction(0),) * (order - 1) if order else (s,)
        shifted = ref_add(var, (Fraction(3),) + (Fraction(0),) * order)
        assert (x / (x + 3)).coeffs == ref_div(var, shifted)
        assert_normalised(x / (x + 3))

    def test_constructed_and_constant_coeffs_are_fractions(self):
        for jet in [Jet(None, (1, Fraction(6, 4), -2)), jet_constant(3, 2), jet_variable(2, 2)]:
            assert_normalised(jet)
        assert Jet(None, (1, Fraction(6, 4))).coeffs == (1, Fraction(3, 2))


class TestEqualityAcrossPaths:
    @given(coefficient_pairs())
    def test_product_then_quotient_equals_operand(self, pair):
        a, b = pair
        ja, jb = Jet(Fraction(1, 3), a), Jet(None, b)
        round_trip = (ja * jb) / jb
        assert round_trip == ja
        assert hash(round_trip) == hash(ja)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_two_forms_of_one_term(self, k):
        x = jet_variable(Fraction(617, 853), 5)
        direct, complement = x / (x + k), 1 - k / (x + k)
        assert direct == complement
        assert hash(direct) == hash(complement)
        assert len({direct, complement}) == 1


def test_jet_route_never_calls_the_alternating_kernel(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the jet route must not use the integer kernel")

    monkeypatch.setattr(identities, "_binomial_sums", forbidden)
    s = Fraction(3, 2)
    f, g = eval_f_jet(s, 12, 4), eval_g_jet(s, 12, 4)
    assert f.value == g.value == identities.eval_basic_rhs(s, 12)
    # a column spanning several blocks of term jets
    column = identities._f_jet_column(s, [0, 12, 2 * identities._BLOCK + 1], 4)
    assert column[12] == f
    assert column[0].coeffs == (1, 0, 0, 0, 0)


def test_jet_route_never_builds_the_lowest_terms_view(monkeypatch):
    # the tail rows read jet numerators and denominators only, never a Fraction per coefficient
    def forbidden(self):
        raise AssertionError("the jet route must stay on integer numerators")

    monkeypatch.setattr(Jet, "coeffs", property(forbidden))
    ns = range(70)
    assert len(ns) > identities._BLOCK  # more than one block of term jets
    rows = identities.sweep([identities.IdentityId.TAIL_DERIVATIVE_FORM],
                            [Fraction(1, 7), Fraction(1000, 3)], ns, range(1, 9))
    assert len(rows) == 2 * 70 * 8 and all(row.equal for row in rows)
    assert 0 < identities.tail_prob_exact(3, Fraction(1), 5) < 1  # it cross-checks both routes


# Jets of orders 0..7 at a shared point, at no point, or now and then at
# another point or of another order, so that + raises MixedJets.
@st.composite
def jet_lists(draw):
    order = draw(st.integers(0, 7))
    small = st.fractions(min_value=-50, max_value=50, max_denominator=60)
    coefficient = st.one_of(small, big_rationals)
    jets = []
    for _ in range(draw(st.integers(1, 8))):
        size = order + 1 if draw(st.integers(0, 15)) else draw(st.integers(1, 8))
        point = draw(st.sampled_from([None, Fraction(2, 7), Fraction(2, 7), Fraction(5)]))
        jets.append(Jet(point, tuple(draw(st.lists(coefficient, min_size=size, max_size=size)))))
    weights = draw(st.lists(st.integers(-2**70, 2**70), min_size=len(jets), max_size=len(jets)))
    return jets, weights


def _loop_sum(weights, jets):
    acc = weights[0] * jets[0]
    for c, jet in zip(weights[1:], jets[1:]):
        acc = acc + c * jet
    return acc


@given(jet_lists())
def test_weighted_sum_equals_the_add_and_mul_loop(case):
    jets, weights = case
    try:
        expected = _loop_sum(weights, jets)
    except MixedJets:
        with pytest.raises(MixedJets):
            JetBlock(jets)
        return
    block = JetBlock(jets)
    result = block.weighted_sum(weights)
    assert result == expected
    assert result.base_point == expected.base_point
    assert_normalised(result)
    # a prefix of the weights sums over the first jets only, at the block's point
    prefix = block.weighted_sum(weights[:1])
    assert prefix.coeffs == (weights[0] * jets[0]).coeffs
    assert prefix.base_point == expected.base_point


def test_weighted_sum_rejects_more_weights_than_jets():
    block = JetBlock([jet_variable(Fraction(1, 3), 2)] * 2)
    with pytest.raises(ValueError):
        block.weighted_sum([1, 2, 3])
    with pytest.raises(ValueError):
        JetBlock([])


@given(coefficient_pairs(), big_rationals)
def test_taylor_sums_are_the_prefix_sums_of_the_coefficients(pair, h):
    a, _ = pair
    nums, den = Jet(None, a).taylor_sums(h)
    prefix = [sum((c * h ** i for i, c in enumerate(a[:d + 1])), Fraction(0)) for d in range(len(a))]
    assert den > 0
    assert [Fraction(x, den) for x in nums] == prefix
