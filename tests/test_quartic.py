from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ceresa_kit.errors import DomainError
from ceresa_kit.exactmath import max_literal_chars
from ceresa_kit.quartic import (
    DepressedQuartic,
    from_invariant_point,
    gm_scale,
    invariants,
    moduli_equal_geometric,
    moduli_equal_rational,
)
from oracles import invariants_fraction, random_rational


def test_invariants_examples():
    inv = invariants(DepressedQuartic(1, 0, 1))
    assert (inv.I, inv.J, inv.disc) == (13, 70, 144)
    assert 4 * 13**3 - 27 * 144 == 70**2

    inv = invariants(DepressedQuartic(0, 0, 0))
    assert (inv.I, inv.J, inv.disc) == (0, 0, 0)

    inv = invariants(DepressedQuartic(-12, 1, -12))
    assert (inv.I, inv.J, inv.disc) == (0, 13797, -7050267)


def test_syzygy_on_random_samples():
    rng = random.Random(11)
    for _ in range(1000):
        q = DepressedQuartic(*(random_rational(rng) for _ in range(3)))
        inv = invariants(q)
        assert inv.J**2 == 4 * inv.I**3 - 27 * inv.disc


small_integers = st.integers(-40, 40).map(Fraction)  # zero and negatives included


@st.composite
def one_denominator(draw):
    """An integer triple with a non-integral value at one position."""
    triple = [draw(small_integers) for _ in range(3)]
    at = draw(st.integers(0, 2))
    triple[at] = Fraction(draw(st.integers(-10**6, 10**6)), draw(st.integers(2, 10**6)))
    return triple


@st.composite
def full_length_literal(draw) -> str:
    """An integer or "p/q" literal of exactly max_literal_chars() characters."""
    length = max_literal_chars()
    sign = draw(st.sampled_from(("", "-")))
    digits = length - len(sign)
    if draw(st.booleans()):
        return sign + str(draw(st.integers(10 ** (digits - 1), 10**digits - 1)))
    num_digits = draw(st.integers(1, digits - 2))
    den_digits = digits - 1 - num_digits
    num = draw(st.integers(10 ** (num_digits - 1), 10**num_digits - 1))
    den = draw(st.integers(10 ** (den_digits - 1), 10**den_digits - 1))
    return f"{sign}{num}/{den}"


full_length_triples = st.tuples(*[full_length_literal() | small_integers] * 3)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(small_integers, small_integers, small_integers),
    one_denominator(),
    st.tuples(*[st.fractions(max_denominator=10**4)] * 3),
    full_length_triples,
))
@example((0, 0, 0))
@example((Fraction(-1, 3), 0, 0))
@example((0, Fraction(5, 7), -1))
@example((0, 0, "-1/" + "9" * (max_literal_chars() - 3)))
def test_invariants_match_the_fraction_oracle(triple):
    assert all(len(v) == max_literal_chars() for v in triple if isinstance(v, str))
    quartic = DepressedQuartic(*triple)
    inv = invariants(quartic)
    assert (inv.I, inv.J, inv.disc) == invariants_fraction(quartic)
    assert all(type(v) is Fraction for v in (inv.I, inv.J, inv.disc))


def test_gm_scale_examples():
    q = DepressedQuartic(3, -5, Fraction(7, 2))
    assert gm_scale(1, q) == q
    assert gm_scale(2, DepressedQuartic(1, 1, 1)) == DepressedQuartic(4, 8, 16)
    with pytest.raises(DomainError):
        gm_scale(0, q)


def test_invariants_scale_with_weights_4_6_12():
    rng = random.Random(13)
    for _ in range(200):
        q = DepressedQuartic(*(random_rational(rng) for _ in range(3)))
        lam = random_rational(rng, 9, 5)
        if lam == 0:
            continue
        inv = invariants(q)
        scaled = invariants(gm_scale(lam, q))
        assert scaled.I == lam**4 * inv.I
        assert scaled.J == lam**6 * inv.J
        assert scaled.disc == lam**12 * inv.disc


def test_moduli_equal_geometric_examples():
    assert moduli_equal_geometric(DepressedQuartic(1, 1, 1), DepressedQuartic(4, 8, 16))
    assert not moduli_equal_geometric(DepressedQuartic(1, 0, 1), DepressedQuartic(1, 1, 1))
    assert moduli_equal_geometric(DepressedQuartic(0, 1, 0), DepressedQuartic(0, 5, 0))
    assert not moduli_equal_geometric(DepressedQuartic(0, 1, 1), DepressedQuartic(0, 1, 2))
    with pytest.raises(DomainError):
        moduli_equal_geometric(DepressedQuartic(0, 0, 0), DepressedQuartic(0, 0, 0))
    with pytest.raises(DomainError):
        moduli_equal_geometric(DepressedQuartic(0, 0, 0), DepressedQuartic(1, 1, 1))


def test_moduli_equal_geometric_is_an_equivalence():
    rng = random.Random(17)
    samples = []
    for _ in range(40):
        q = DepressedQuartic(*(random_rational(rng, 6, 3) for _ in range(3)))
        if not q.is_zero_triple():
            samples.append(q)
    for q in samples:
        assert moduli_equal_geometric(q, q)
    for q1 in samples:
        for q2 in samples:
            assert moduli_equal_geometric(q1, q2) == moduli_equal_geometric(q2, q1)
    for q1 in samples:
        for q2 in samples:
            for q3 in samples:
                if moduli_equal_geometric(q1, q2) and moduli_equal_geometric(q2, q3):
                    assert moduli_equal_geometric(q1, q3)
    # scalings are always identified
    for q in samples:
        for lam in (2, Fraction(-3, 2), Fraction(1, 5)):
            assert moduli_equal_geometric(q, gm_scale(lam, q))


def test_moduli_equal_rational_examples():
    assert moduli_equal_rational(DepressedQuartic(1, 1, 1), DepressedQuartic(4, 8, 16)) == 2
    assert moduli_equal_rational(DepressedQuartic(1, 0, 0), DepressedQuartic(-1, 0, 0)) is None
    assert moduli_equal_rational(DepressedQuartic(0, 1, 0), DepressedQuartic(0, 8, 0)) == 2
    assert moduli_equal_rational(DepressedQuartic(0, 0, 1), DepressedQuartic(0, 0, 16)) == 2


# One case for each pairwise rule of moduli_equal_geometric and each root
# that moduli_equal_rational takes: (q1, q2, geometric, rational factor).
WEIGHT_RULE_CASES = [
    ((1, 1, 0), (4, -8, 0), True, -2),  # (a, b) rule; the square root's negative
    ((1, 0, 1), (2, 0, 4), True, None),  # (a, c) rule holds; lam = sqrt(2)
    ((1, 0, 1), (2, 0, -4), False, None),  # (a, c) rule fails
    ((0, 1, 1), (0, 8, -16), False, None),  # (b, c) rule fails by the sign alone
    ((0, 1, 0), (0, -8, 0), True, -2),  # the odd weight's negative cube root
]


@pytest.mark.parametrize(("q1", "q2", "geometric", "lam"), WEIGHT_RULE_CASES)
def test_each_weight_rule_decides_a_case(q1, q2, geometric, lam):
    q1, q2 = DepressedQuartic(*q1), DepressedQuartic(*q2)
    inverse = None if lam is None else 1 / Fraction(lam)
    # Both orders, so that neither side of a rule has only unit coordinates.
    for x, y, factor in ((q1, q2, lam), (q2, q1, inverse)):
        assert moduli_equal_geometric(x, y) is geometric
        assert moduli_equal_rational(x, y) == factor


def test_moduli_rational_implies_geometric():
    rng = random.Random(19)
    hits = 0
    for _ in range(300):
        q1 = DepressedQuartic(*(random_rational(rng, 5, 3) for _ in range(3)))
        if q1.is_zero_triple():
            continue
        if rng.random() < 0.5:
            lam = random_rational(rng, 5, 3)
            q2 = gm_scale(lam, q1) if lam != 0 else q1
        else:
            q2 = DepressedQuartic(*(random_rational(rng, 5, 3) for _ in range(3)))
            if q2.is_zero_triple():
                continue
        lam = moduli_equal_rational(q1, q2)
        if lam is not None:
            hits += 1
            assert gm_scale(lam, q1) == q2
            assert moduli_equal_geometric(q1, q2)
    assert hits > 50


def test_from_invariant_point_recovers_invariants():
    rng = random.Random(23)
    for _ in range(200):
        inv_i = random_rational(rng)
        alpha = random_rational(rng)
        beta = random_rational(rng)
        # choose J so that (alpha, beta) sits on y^2 = x^3 - Ix/3 - J/27
        inv_j = 27 * alpha**3 - 9 * inv_i * alpha - 27 * beta**2
        q = from_invariant_point(inv_i, inv_j, alpha, beta)
        inv = invariants(q)
        assert (inv.I, inv.J) == (inv_i, inv_j)
        assert inv.disc == (4 * inv_i**3 - inv_j**2) / 27
    with pytest.raises(DomainError):
        from_invariant_point(3, 9, 1, 1)  # not on the curve
