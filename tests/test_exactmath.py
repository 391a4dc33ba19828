from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ceresa_kit.errors import DomainError
from ceresa_kit.exactmath import (
    MAX_LITERAL_CHARS,
    _int_nth_root,
    UPoly,
    cyclotomic_polynomial,
    integer,
    monic_divmod,
    rat,
    rational_nth_root,
)
from oracles import (
    CycNum,
    NotRationalError,
    cyc_to_rational,
    euler_phi,
    geometric_series_by_division,
    is_prime,
    poly_discriminant,
    product_of_divisor_polys,
    random_rational,
    resultant,
    root_of_unity,
)


def quartic_poly(a, b, c) -> UPoly:
    return UPoly([c, b, a, 0, 1])


def closed_form_disc(a, b, c) -> Fraction:
    a, b, c = rat(a), rat(b), rat(c)
    return (
        -4 * a**3 * b**2
        - 27 * b**4
        + 16 * a**4 * c
        + 144 * a * b**2 * c
        - 128 * a**2 * c**2
        + 256 * c**3
    )


def test_rat_parsing_and_serialization():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-12") == -12
    assert rat("2/4") == Fraction(1, 2)
    with pytest.raises(DomainError):
        rat("1/-2")
    with pytest.raises(DomainError):
        rat("abc")
    with pytest.raises(DomainError):
        rat(1.5)
    # bool and any other int subclass read as their int value; a Fraction
    # (a subclass too) is returned as it is.
    assert rat(True) == 1 and type(rat(True)) is Fraction
    assert rat(False) == 0 and type(rat(False)) is Fraction

    class Count(int):
        pass

    class Ratio(Fraction):
        pass

    assert rat(Count(7)) == 7 and type(rat(Count(7))) is Fraction
    half = Ratio(1, 2)
    assert rat(half) is half
    third = Fraction(1, 3)
    assert rat(third) is third


def test_rat_rejects_exponent_notation():
    assert rat("1.25") == Fraction(5, 4)
    assert rat(" -7/3 ") == Fraction(-7, 3)
    for literal in ("1e500000", "1E5", "2.5e-3", "-1e3/7", "1e999999999"):
        with pytest.raises(DomainError):
            rat(literal)


def test_rat_caps_literal_length_and_clips_messages():
    longest = "9" * MAX_LITERAL_CHARS
    assert rat(longest) == 10**MAX_LITERAL_CHARS - 1
    assert rat("-1/" + "7" * (MAX_LITERAL_CHARS - 3)).denominator == int(
        "7" * (MAX_LITERAL_CHARS - 3))
    for literal in (longest + "9", " " + longest, "1" * 5001, "1/" + "3" * 5000):
        with pytest.raises(DomainError, match="longer than 390 characters") as info:
            rat(literal)
        assert str(info.value) == (
            f"rational literal {literal[:40]!r}… is longer than 390 characters")
    with pytest.raises(DomainError) as info:
        rat("x" * 300)
    assert str(info.value) == f"invalid rational literal {'x' * 40!r}…"
    with pytest.raises(DomainError) as info:
        rat("1" * 100 + "e5")
    assert str(info.value) == (
        f"invalid rational literal {'1' * 40!r}…: no exponent notation")


# The literal grammar of ``rat``, restated: an optional sign, then ASCII
# digits with an optional "/digits" (not all zero), or a decimal with digits
# on at least one side of the point.
ASCII_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/0*[1-9][0-9]*)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def test_rat_reads_every_form_of_the_grammar():
    assert [rat(s) for s in ("+5", "-0", "007/010", "1.", ".5", "-.25", "+3.50", "\t2/3\n")] == [
        5, 0, Fraction(7, 10), 1, Fraction(1, 2), Fraction(-1, 4), Fraction(7, 2), Fraction(2, 3)]


@pytest.mark.parametrize("literal", [
    "1_000", "1_0/3", "2/1_0", "1_0.5",  # underscores: read by Fraction on 3.11+
    "1 / 2", "1/ 2", "1 /2", "- 1",  # spaces inside: "1 / 2" read by Fraction on 3.12+
    "\uff11\uff12", "\u0661\u0662", "3/\u0664", "\u0967.5",  # non-ASCII digits: read by Fraction
    "+-1", "1.5/2", "1/2.5", ".", "/2", "1/", "", " ", "1/0", "3/000", "0x10", "\u00bd", "inf", "nan",
])
def test_rat_refuses_literals_outside_the_ascii_grammar(literal):
    with pytest.raises(DomainError) as info:
        rat(literal)
    assert str(info.value) == f"invalid rational literal {literal!r}"


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from("0123456789+-./_ \t\uff11\u0661\u0967\u00a0\u2003"), max_size=10))
@example("1_000")
@example("\u2003-1.5\u00a0")
def test_every_literal_rat_accepts_matches_the_ascii_grammar(literal):
    try:
        value = rat(literal)
    except DomainError:
        return
    assert ASCII_RATIONAL.fullmatch(literal.strip())
    assert value == Fraction(literal.strip())


def test_integer_reads_a_sign_and_ascii_digits():
    assert [integer(s) for s in ("15", "+5", "-0", "007", "\t-12\n", "\u2003 3")] == [
        15, 5, 0, 7, -12, 3]


@pytest.mark.parametrize("literal", [
    "1_5", "\uff11\uff15", "\u0661\u0662", "1\u0967",  # read by int()
    "1 5", "- 1", "+-1", "1.0", "1/1", "0x10", "1e3", "", " ", "\u00bd",
])
def test_integer_refuses_literals_outside_the_ascii_grammar(literal):
    with pytest.raises(ValueError, match="invalid integer literal"):
        integer(literal)


def test_integer_caps_literal_length_as_rat_does():
    longest = "9" * MAX_LITERAL_CHARS
    assert integer(longest) == 10**MAX_LITERAL_CHARS - 1
    for literal in (longest + "9", " " + longest, "1" * 5001):
        with pytest.raises(DomainError) as info:
            integer(literal)
        assert str(info.value) == (
            f"integer literal {literal[:40]!r}… is longer than {MAX_LITERAL_CHARS} characters")


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("0123456789+-_ \t\uff11\u0661\u00a0\u2003"), max_size=8))
@example("1_5")
def test_every_literal_integer_accepts_is_a_sign_and_ascii_digits(literal):
    try:
        value = integer(literal)
    except ValueError:
        return
    assert re.fullmatch(r"[+-]?[0-9]+", literal.strip())
    assert value == int(literal)


def test_rational_nth_root():
    assert rational_nth_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rational_nth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert rational_nth_root(Fraction(16, 81), 4) == Fraction(2, 3)
    assert rational_nth_root(Fraction(2), 2) is None
    assert rational_nth_root(Fraction(-1), 2) is None
    big = Fraction(10**60 + 1) ** 3
    assert rational_nth_root(big, 3) == 10**60 + 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**1000), st.integers(1, 12))
@example(0, 5)
@example(1, 12)
@example(2**64 - 1, 2)
@example(3**12 * 5**12 - 1, 12)
@example(10**1000, 3)
def test_int_nth_root_is_the_floor_of_the_root(k, n):
    r = _int_nth_root(k, n)
    assert r**n <= k < (r + 1) ** n


def test_int_nth_root_refuses_a_negative_radicand():
    with pytest.raises(ValueError, match="^negative radicand$"):
        _int_nth_root(-1, 3)


def test_upoly_divmod_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        p = UPoly([random_rational(rng) for _ in range(rng.randint(0, 6))])
        q = UPoly([random_rational(rng) for _ in range(rng.randint(1, 4))])
        if q.is_zero():
            continue
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.is_zero() or rem.degree() < q.degree()


def test_discriminant_examples():
    assert poly_discriminant(UPoly([-1, 0, 1])) == 4
    assert poly_discriminant(quartic_poly(1, 0, 1)) == 144
    assert poly_discriminant(quartic_poly(0, 1, 0)) == -27
    with pytest.raises(DomainError):
        poly_discriminant(UPoly.zero())
    with pytest.raises(DomainError):
        poly_discriminant(UPoly.const(5))


def test_discriminant_matches_closed_form_on_random_quartics():
    rng = random.Random(2024)
    for _ in range(1000):
        a, b, c = (random_rational(rng) for _ in range(3))
        assert poly_discriminant(quartic_poly(a, b, c)) == closed_form_disc(a, b, c)


def test_resultant_basics():
    # Res(p, q) multiplicativity on a split example: p = (x-1)(x-2)
    p = UPoly([2, -3, 1])
    q = UPoly([1, 1])  # x + 1
    assert resultant(p, q) == q.evaluate(1) * q.evaluate(2)
    assert resultant(q, p) == resultant(p, q)  # deg p * deg q is even


def test_cyclotomic_examples():
    assert cyclotomic_polynomial(1) == UPoly([-1, 1])
    assert cyclotomic_polynomial(3) == UPoly([1, 1, 1])
    with pytest.raises(DomainError):
        cyclotomic_polynomial(0)
    # division oracle: x^9 - 1 = Phi_1 Phi_3 Phi_9, so Phi_9 = (x^9-1)/(x^3-1)
    x9 = UPoly.x_pow(9) - UPoly.one()
    x3 = UPoly.x_pow(3) - UPoly.one()
    quot, rem = divmod(x9, x3)
    assert rem.is_zero()
    assert cyclotomic_polynomial(9) == quot == UPoly([1, 0, 0, 1, 0, 0, 1])
    for level in range(1, 31):
        assert cyclotomic_polynomial(level).degree() == euler_phi(level)
    # x^L - 1 is the product of the cyclotomic polynomials at the divisors of L
    for level in (*range(1, 65), 105, 210):  # Phi_105 has a coefficient -2
        product = UPoly.one()
        for d in range(1, level + 1):
            if level % d == 0:
                product = product * cyclotomic_polynomial(d)
        assert product == UPoly.x_pow(level) - UPoly.one()


def test_cyclotomic_polynomials_multiply_to_x_to_the_level_minus_one():
    for level in range(1, 129):
        assert product_of_divisor_polys(level, cyclotomic_polynomial) == (
            [-1] + [0] * (level - 1) + [1]), level


def test_cyclotomic_polynomial_of_a_prime_is_the_geometric_series():
    primes = [p for p in range(1000) if is_prime(p)]
    assert len(primes) == 168
    for p in primes:
        assert cyclotomic_polynomial(p) == UPoly([1] * p) == geometric_series_by_division(p)


def test_monic_divmod_matches_rational_division():
    rng = random.Random(67)
    for _ in range(200):
        num = [rng.randint(-9, 9) for _ in range(rng.randint(0, 12))]
        den = [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))] + [1]
        quot, rem = monic_divmod(num, den)
        assert len(rem) == len(den) - 1
        assert len(quot) == max(len(num) - len(den) + 1, 0)
        assert (UPoly(quot), UPoly(rem)) == divmod(UPoly(num), UPoly(den))
    with pytest.raises(DomainError):
        monic_divmod([1, 2, 3], [1, 2])
    with pytest.raises(DomainError):
        monic_divmod([1, 2, 3], [])


def test_root_of_unity_examples():
    assert root_of_unity(3, 0) == 1
    assert root_of_unity(3, 2).rep == UPoly([-1, -1])
    assert root_of_unity(4, 3).rep == UPoly([0, -1])


def test_cyc_to_rational():
    assert cyc_to_rational(CycNum.from_rational(Fraction(5, 2), 3)) == Fraction(5, 2)
    with pytest.raises(NotRationalError):
        cyc_to_rational(root_of_unity(3, 1))
    total = root_of_unity(3, 0) + root_of_unity(3, 1) + root_of_unity(3, 2)
    assert cyc_to_rational(total) == 0


def test_cycnum_ring_axioms():
    rng = random.Random(5)
    for level in (3, 5, 7, 9, 12, 15):
        for _ in range(20):
            a, b, c = (
                sum(
                    (random_rational(rng, 5, 3) * root_of_unity(level, rng.randrange(level))
                     for _ in range(3)),
                    CycNum.from_rational(0, level),
                )
                for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a


def test_roots_of_unity_have_exact_order():
    for level in range(1, 25):
        for e in range(level):
            assert root_of_unity(level, e) ** level == 1


def test_vanishing_geometric_sums():
    for level in range(2, 25):
        total = CycNum.from_rational(0, level)
        for e in range(level):
            total = total + root_of_unity(level, e)
        assert cyc_to_rational(total) == 0


def test_mixed_level_arithmetic():
    z3 = root_of_unity(3, 1)
    z2 = root_of_unity(2, 1)
    assert z2 == -1
    assert z2 * z3 == root_of_unity(6, 5)
    assert z3 == z3._lift(12)
    assert z3 + root_of_unity(4, 1) == root_of_unity(12, 4) + root_of_unity(12, 3)
