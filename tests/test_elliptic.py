from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ceresa_kit.ceresa import PicardCurve, picard_invariant_point
from ceresa_kit.elliptic import (
    ECPoint,
    INFINITY,
    WeierstrassCurve,
    add,
    affine,
    negate,
    rational_torsion_j0,
    scalar_mul,
    torsion_order_q,
    velu_3isogeny,
)
from ceresa_kit.errors import DomainError
from ceresa_kit.quartic import DepressedQuartic, invariants
from oracles import (
    on_curve_fraction,
    random_rational,
    rational_torsion_j0_closure,
    torsion_order_by_walk,
    torsion_points_bruteforce,
)


def curve_through(p1: ECPoint, p2: ECPoint) -> WeierstrassCurve:
    """The y^2 = x^3 + Ax + B through two affine points with distinct x."""
    u1 = p1.y**2 - p1.x**3
    u2 = p2.y**2 - p2.x**3
    a = (u1 - u2) / (p2.x - p1.x)
    return WeierstrassCurve(-a, u1 + a * p1.x)


def test_curve_construction_rejects_singular():
    with pytest.raises(DomainError):
        WeierstrassCurve(0, 0)
    with pytest.raises(DomainError):
        WeierstrassCurve(-3, 2)  # 4*(-27) + 27*4 = 0


def test_add_examples():
    e = WeierstrassCurve(0, -432)
    p = affine(12, 36)
    assert add(e, p, INFINITY) == p
    assert add(e, INFINITY, p) == p
    assert add(e, p, p) == affine(12, -36)

    for m in (1, 2, Fraction(7, 3)):
        em = WeierstrassCurve(0, m * m)
        q = affine(0, m)
        assert add(em, q, q) == affine(0, -m)
        assert scalar_mul(em, 3, q) == INFINITY

    with pytest.raises(DomainError):
        add(e, affine(1, 1), p)


def test_scalar_mul_examples():
    e = WeierstrassCurve(0, -432)
    assert scalar_mul(e, 0, affine(12, 36)) == INFINITY
    assert scalar_mul(e, 3, affine(12, 36)) == INFINITY
    assert scalar_mul(e, -1, affine(12, 36)) == affine(12, -36)
    e1 = WeierstrassCurve(0, 1)
    assert scalar_mul(e1, 6, affine(2, 3)) == INFINITY
    assert scalar_mul(e1, 2, affine(2, 3)) == affine(0, 1)
    assert scalar_mul(e1, 3, affine(2, 3)) == affine(-1, 0)


def test_torsion_order_examples():
    e = WeierstrassCurve(0, -432)
    assert torsion_order_q(e, INFINITY) == 1
    assert torsion_order_q(e, affine(12, 36)) == 3
    with pytest.raises(DomainError, match=r"point \(1, 1\) is not on"):
        torsion_order_q(e, affine(1, 1))  # checked by the first addition
    e2 = WeierstrassCurve(0, -62208)
    assert torsion_order_q(e2, affine(52, 280)) is None
    for n in range(1, 13):
        assert not scalar_mul(e2, n, affine(52, 280)).is_infinity


def test_torsion_order_divisor_structure():
    e1 = WeierstrassCurve(0, 1)
    p = affine(2, 3)
    assert torsion_order_q(e1, p) == 6
    for d in (1, 2, 3):
        assert not scalar_mul(e1, d, p).is_infinity
    # order n means n*P = O and d*P != O for every proper divisor d
    for d_curve in (1, -432, 4, 9, -27):
        curve = WeierstrassCurve(0, d_curve)
        for point in rational_torsion_j0(d_curve):
            n = torsion_order_q(curve, point)
            assert scalar_mul(curve, n, point) == INFINITY
            for d in range(1, n):
                if n % d == 0:
                    assert not scalar_mul(curve, d, point).is_infinity


def tate_normal_form(b: Fraction, c: Fraction) -> tuple[WeierstrassCurve, ECPoint]:
    """y^2 + (1-c)xy - by = x^3 - bx^2 and P = (0, 0), moved to the short model."""
    a1, a2, a3 = 1 - c, -b, -b
    b2, b4, b6 = a1 * a1 + 4 * a2, a1 * a3, a3 * a3
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    return WeierstrassCurve(-27 * c4, -54 * c6), affine(3 * b2, 108 * a3)


def kubert_family(order: int, t: Fraction) -> tuple[Fraction, Fraction]:
    """(b, c) of Kubert's Tate-normal-form family with a point of this order."""
    if order == 4:
        return t, Fraction(0)
    if order == 5:
        return t, t
    if order == 6:
        return t + t * t, t
    if order == 7:
        return t**3 - t**2, t**2 - t
    if order == 8:
        return (2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t
    if order == 9:
        return t**2 * (t - 1) * (t * t - t + 1), t**2 * (t - 1)
    if order == 10:
        d = t * t / (t - (t - 1) ** 2)
        c = t * d - t
        return c * d, c
    assert order == 12
    m = (3 * t - 3 * t * t - 1) / (t - 1)
    f = m / (1 - t)
    d = m + t
    c = f * (d - 1)
    return c * d, c


@pytest.mark.parametrize("order", [4, 5, 6, 7, 8, 9, 10, 12])
def test_torsion_order_up_to_the_mazur_bound(order):
    curve, p = tate_normal_form(*kubert_family(order, Fraction(2 if order == 12 else 3)))
    assert torsion_order_q(curve, p) == order
    assert scalar_mul(curve, order, p) == INFINITY
    for d in range(1, order):
        if order % d == 0:
            assert not scalar_mul(curve, d, p).is_infinity


def test_torsion_order_of_a_point_of_infinite_order():
    curve, p = tate_normal_form(Fraction(1), Fraction(2))
    assert curve == WeierstrassCurve(405, 16038) and p == affine(-9, -108)
    assert torsion_order_q(curve, p) is None
    for n in range(1, 13):
        assert not scalar_mul(curve, n, p).is_infinity
    # Nagell-Lutz: on an integral model torsion points have integral coordinates.
    assert scalar_mul(curve, 6, p) == affine(Fraction(99, 25), Fraction(-16632, 125))


@pytest.fixture
def law_counts(monkeypatch):
    """Counts of the checked `add`, the unchecked `_add` and on-curve tests.

    The checked `add` runs the law through `_add`, so `_add` counts every
    addition and `add` the checked ones among them.
    """
    import ceresa_kit.elliptic as elliptic

    calls = {"add": 0, "_add": 0, "contains": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(elliptic, "add", counted("add", elliptic.add))
    monkeypatch.setattr(elliptic, "_add", counted("_add", elliptic._add))
    monkeypatch.setattr(WeierstrassCurve, "contains",
                        counted("contains", WeierstrassCurve.contains))
    return calls


def test_torsion_walk_checks_p_once_and_never_forms_11p(law_counts):
    curve, p = tate_normal_form(Fraction(1), Fraction(2))
    assert torsion_order_q(curve, p) is None
    # 2P through the checked add (two on-curve tests of P), then 3P, ..., 10P
    # and 12P = 10P + 2P: 1 + 9 additions, so 11P is never formed.
    assert law_counts == {"add": 1, "_add": 1 + 9, "contains": 2}


def test_torsion_walk_refuses_an_off_curve_point_before_any_addition(law_counts):
    with pytest.raises(DomainError, match=r"point \(1, 1\) is not on"):
        torsion_order_q(WeierstrassCurve(0, -432), affine(1, 1))
    assert law_counts == {"add": 1, "_add": 0, "contains": 1}


def test_rational_torsion_j0_examples():
    assert rational_torsion_j0(-432) == [INFINITY, affine(12, -36), affine(12, 36)]
    assert rational_torsion_j0(1) == [
        INFINITY,
        affine(-1, 0),
        affine(0, -1),
        affine(0, 1),
        affine(2, -3),
        affine(2, 3),
    ]
    assert rational_torsion_j0(2) == [INFINITY]
    with pytest.raises(DomainError):
        rational_torsion_j0(0)


def test_rational_torsion_j0_matches_division_polynomial_oracle():
    rng = random.Random(3)
    ds = [Fraction(-432), Fraction(1), Fraction(2), Fraction(16), Fraction(-27)]
    ds += [Fraction(rng.randint(-30, 30)) for _ in range(10)]
    ds += [Fraction(1, 64), Fraction(-27, 8)]
    for d in ds:
        if d == 0:
            continue
        assert rational_torsion_j0(d) == torsion_points_bruteforce(0, d)


def test_rational_torsion_j0_is_a_subgroup():
    rng = random.Random(29)
    sizes = set()
    for _ in range(60):
        d = random_rational(rng, 80, 6)
        if d == 0:
            continue
        pts = rational_torsion_j0(d)
        curve = WeierstrassCurve(0, d)
        sizes.add(len(pts))
        group = set(pts)
        for p in group:
            assert negate(p) in group
            for q in group:
                assert add(curve, p, q) in group
    assert sizes <= {1, 2, 3, 6}
    assert len(sizes) > 1


nonzero_scales = st.fractions(min_value=-12, max_value=12, max_denominator=9).filter(bool)
# One strategy per torsion shape of y^2 = x^3 + D, and plain rationals
# (almost always trivial torsion).
j0_coefficients = st.one_of(
    nonzero_scales.map(lambda u: u**6),  # Z/6
    nonzero_scales.map(lambda u: -(u**6)),  # Z/2
    nonzero_scales.map(lambda u: u**2),  # Z/3, or Z/6 when u is a cube
    nonzero_scales.map(lambda u: u**3),  # Z/2, or Z/6 when u is a square
    nonzero_scales.map(lambda u: -432 * u**6),  # Z/3
    nonzero_scales.map(lambda u: 16 * u**6),  # Z/3
    st.fractions(max_denominator=10**6).filter(bool),
)


@settings(max_examples=300, deadline=None)
@given(j0_coefficients)
@example(Fraction(64, 729))  # Z/6
@example(Fraction(-8, 27))  # Z/2
@example(Fraction(-432, 64))  # Z/3
@example(Fraction(25, 4))  # Z/3
@example(Fraction(7, 3))  # trivial
def test_rational_torsion_j0_matches_the_closure_oracle(d):
    assert rational_torsion_j0(d) == rational_torsion_j0_closure(d)


def test_rational_torsion_j0_uses_no_group_law(monkeypatch):
    import ceresa_kit.elliptic

    ds = [Fraction(1), Fraction(-432), Fraction(2), Fraction(-8), Fraction(4, 9),
          Fraction(-27, 8), Fraction(16, 729), Fraction(7, 3)]
    expected = [rational_torsion_j0_closure(d) for d in ds]
    assert {len(points) for points in expected} == {1, 2, 3, 6}

    def refuse(*args):
        raise AssertionError("group law used")

    monkeypatch.setattr(ceresa_kit.elliptic, "add", refuse)
    monkeypatch.setattr(ceresa_kit.elliptic, "WeierstrassCurve", refuse)
    assert [rational_torsion_j0(d) for d in ds] == expected


def test_velu_3isogeny_examples():
    iso = velu_3isogeny(1)
    assert iso.apply(INFINITY) == INFINITY
    assert iso.apply(affine(0, 1)) == INFINITY  # kernel
    assert iso.apply(affine(2, 3)) == affine(3, 0)
    assert 3**3 - 27 == 0

    iso36 = velu_3isogeny(36)
    assert iso36.apply(affine(-3, -3)) == affine(13, -35)
    assert 13**3 - 972 == 35**2

    with pytest.raises(DomainError):
        velu_3isogeny(0)


def test_velu_3isogeny_is_a_homomorphism():
    rng = random.Random(31)
    checked = 0
    while checked < 50:
        x = random_rational(rng, 9, 4)
        y = random_rational(rng, 9, 4)
        d = y * y - x**3
        if d == 0 or x == 0:
            continue
        curve = WeierstrassCurve(0, d)
        iso = velu_3isogeny(d)
        p = affine(x, y)
        points = {n: scalar_mul(curve, n, p) for n in range(1, 4)}
        images = {n: iso.apply(q) for n, q in points.items()}
        target = iso.target
        assert images[2] == add(target, images[1], images[1])
        assert images[3] == add(target, images[1], images[2])
        checked += 1


def test_velu_3isogeny_composed_with_dual_is_tripling():
    # Push through D -> -27D -> 729D, then undo the trivial sextic twist by 3.
    for d, p in [(Fraction(1), affine(2, 3)), (Fraction(36), affine(-3, -3))]:
        curve = WeierstrassCurve(0, d)
        iso = velu_3isogeny(d)
        dual = velu_3isogeny(-27 * d)
        image = dual.apply(iso.apply(p))
        if image.is_infinity:
            assert scalar_mul(curve, 3, p) == INFINITY
        else:
            assert scalar_mul(curve, 3, p) == affine(image.x / 9, image.y / 27)


def test_velu_3isogeny_kills_exactly_the_3_part():
    iso = velu_3isogeny(1)
    curve = WeierstrassCurve(0, 1)
    target = iso.target
    for p in rational_torsion_j0(1):
        order = torsion_order_q(curve, p)
        image_order = torsion_order_q(target, iso.apply(p))
        expected = order // 3 if order % 3 == 0 else order
        assert image_order == expected
    assert torsion_order_q(target, iso.apply(affine(2, 3))) == 2


def test_group_law_axioms_on_random_curves():
    rng = random.Random(37)
    done = 0
    while done < 200:
        x1, y1 = random_rational(rng, 8, 3), random_rational(rng, 8, 3)
        x2, y2 = random_rational(rng, 8, 3), random_rational(rng, 8, 3)
        if x1 == x2:
            continue
        try:
            curve = curve_through(affine(x1, y1), affine(x2, y2))
        except DomainError:
            continue
        p1, p2 = affine(x1, y1), affine(x2, y2)
        assert add(curve, p1, p2) == add(curve, p2, p1)
        assert add(curve, p1, negate(p1)) == INFINITY
        p3 = add(curve, scalar_mul(curve, rng.randint(-2, 2), p1),
                 scalar_mul(curve, rng.randint(-2, 2), p2))
        left = add(curve, add(curve, p1, p2), p3)
        right = add(curve, p1, add(curve, p2, p3))
        assert left == right
        done += 1


def multiples(curve: WeierstrassCurve, point: ECPoint) -> list[ECPoint]:
    """P, 2P, ..., 12P, or up to the first multiple that is the point at infinity."""
    found = [point]
    while len(found) < 12 and not found[-1].is_infinity:
        found.append(add(curve, found[-1], point))
    return found


def perturbed(p: ECPoint, delta: Fraction) -> list[ECPoint]:
    """P with each coordinate shifted, P rescaled by the weights (2, 3), which
    keeps yd^2 = xd^3 but moves it off the curve unless delta = ±1, and -P."""
    return [ECPoint(p.x + delta, p.y), ECPoint(p.x, p.y + delta),
            ECPoint(p.x / delta**2, p.y / delta**3), negate(p)]


def assert_contains_matches_the_oracle(curve: WeierstrassCurve, point: ECPoint,
                                       delta: Fraction) -> None:
    for multiple in multiples(curve, point):
        assert curve.contains(multiple) and on_curve_fraction(curve, multiple)
        if not multiple.is_infinity:
            for moved in perturbed(multiple, delta):
                assert curve.contains(moved) == on_curve_fraction(curve, moved)


integer_values = st.integers(-30, 30).map(Fraction)
rational_values = st.fractions(min_value=-30, max_value=30, max_denominator=12)
nonzero_values = (integer_values | rational_values).filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[integer_values] * 3) | st.tuples(*[rational_values] * 3), nonzero_values)
@example((Fraction(1), Fraction(0), Fraction(1)), Fraction(1))  # B integral
@example((Fraction(-1, 3), Fraction(1, 7), Fraction(2)), Fraction(1, 2))  # B not integral
@example((Fraction(-3, 2), Fraction(1, 3), Fraction(-1, 48)), Fraction(3))  # order 6
def test_contains_matches_the_fraction_oracle_on_invariant_points(triple, delta):
    quartic = DepressedQuartic(*triple)
    assume(invariants(quartic).disc != 0)
    curve, point = picard_invariant_point(PicardCurve(quartic))
    assert_contains_matches_the_oracle(curve, point, delta)


@st.composite
def curves_through_a_point(draw, values):
    """A nonsingular y^2 = x^3 + Ax + B through an (x, y), some with y = 0 or x = 0."""
    x, y, a = draw(values), draw(values), draw(values)
    kind = draw(st.sampled_from(("any", "y = 0", "x = 0")))
    if kind == "y = 0":
        y = Fraction(0)
    elif kind == "x = 0":
        x = Fraction(0)
    b = y * y - x**3 - a * x
    assume(4 * a**3 + 27 * b**2 != 0)
    return WeierstrassCurve(a, b), ECPoint(x, y)


@settings(max_examples=120, deadline=None)
@given(curves_through_a_point(integer_values) | curves_through_a_point(rational_values),
       nonzero_values)
@example((WeierstrassCurve(-1, 0), affine(0, 0)), Fraction(1))
@example((WeierstrassCurve(Fraction(1, 2), Fraction(1, 9)), affine(0, "1/3")), Fraction(1))
def test_contains_matches_the_fraction_oracle_on_general_curves(curve_and_point, delta):
    curve, point = curve_and_point
    assert_contains_matches_the_oracle(curve, point, delta)


@st.composite
def kubert_points(draw):
    """A Tate-normal-form point of Kubert's family of one order, at a random t."""
    order = draw(st.sampled_from([4, 5, 6, 7, 8, 9, 10, 12]))
    t = draw(st.fractions(min_value=-9, max_value=9, max_denominator=9))
    try:
        return tate_normal_form(*kubert_family(order, t))
    except (ZeroDivisionError, DomainError):  # t on a cusp of the family
        assume(False)


@st.composite
def j0_torsion_points(draw):
    """A rational torsion point of y^2 = x^3 + D, from its classification."""
    d = draw(j0_coefficients)
    return WeierstrassCurve(0, d), draw(st.sampled_from(rational_torsion_j0(d)))


@st.composite
def tate_points(draw):
    """(0, 0) on a random Tate normal form, almost always of infinite order."""
    b, c = draw(rational_values), draw(rational_values)
    try:
        return tate_normal_form(b, c)
    except DomainError:  # singular
        assume(False)


@settings(max_examples=250, deadline=None)
@given(kubert_points() | j0_torsion_points() | tate_points())
@example(tate_normal_form(*kubert_family(12, Fraction(2))))
@example((WeierstrassCurve(0, 1), affine(2, 3)))  # order 6
@example(tate_normal_form(Fraction(1), Fraction(2)))  # infinite order
def test_torsion_order_matches_the_walk_oracle(curve_and_point):
    curve, point = curve_and_point
    assert torsion_order_q(curve, point) == torsion_order_by_walk(curve, point)
