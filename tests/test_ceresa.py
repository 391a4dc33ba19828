from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ceresa_kit import ceresa
from ceresa_kit.ceresa import (
    GRIFFITHS_TORSION,
    CeresaVerdict,
    ChowVerdict,
    PicardCurve,
    VERDICT_NON_TORSION,
    VERDICT_SKIPPED,
    VERDICT_TORSION,
    bielliptic_consistency,
    decide,
    e0_rational_torsion,
    family_generate,
    picard_invariant_point,
    scan,
    scan_csv_lines,
)
from ceresa_kit.elliptic import (
    INFINITY,
    WeierstrassCurve,
    affine,
    negate,
    torsion_order_q,
    velu_3isogeny,
)
from ceresa_kit.errors import DomainError
from ceresa_kit.exactmath import UPoly
from ceresa_kit.quartic import DepressedQuartic, gm_scale, invariants
from oracles import poly_discriminant, random_rational


def test_picard_curve_rejects_singular_quartics():
    with pytest.raises(DomainError):
        PicardCurve.from_coefficients(0, 0, 0)
    with pytest.raises(DomainError):
        PicardCurve.from_coefficients(1, 0, 0)  # disc = 0
    PicardCurve.from_coefficients(1, 0, 1)


def test_picard_invariant_point_examples():
    short_curve, point = picard_invariant_point(PicardCurve.from_coefficients(1, 0, 1))
    assert point == affine(52, 280)  # (4I, 4J) for (I, J) = (13, 70)
    assert short_curve.B == -62208

    curve = PicardCurve.from_coefficients(-12, 1, -12)
    short_curve, point = picard_invariant_point(curve)
    assert point == affine(0, 4 * 13797)
    assert curve.invariants.disc == -Fraction(13797) ** 2 / 27  # disc = -J^2/27 when I = 0
    assert short_curve == WeierstrassCurve(0, 16 * Fraction(13797) ** 2)

    short_curve, point = picard_invariant_point(PicardCurve.from_coefficients(0, 0, -1))
    assert point == affine(-48, 0)  # (I, J) = (-12, 0)
    assert torsion_order_q(short_curve, point) == 2

    # The short model and its point, against closed-form invariants and the
    # resultant oracle; (I, J) lies on y^2 = 4x^3 - 27*disc.
    rng = random.Random(37)
    checked = 0
    while checked < 200:
        a, b, c = (random_rational(rng) for _ in range(3))
        disc = poly_discriminant(UPoly([c, b, a, 0, 1]))
        if disc == 0:
            continue
        inv_i, inv_j = a * a + 12 * c, 72 * a * c - 2 * a**3 - 27 * b * b
        curve = PicardCurve.from_coefficients(a, b, c)
        short_curve, point = picard_invariant_point(curve)
        assert (curve.invariants.I, curve.invariants.J) == (inv_i, inv_j)
        assert point == affine(4 * inv_i, 4 * inv_j)
        assert short_curve == WeierstrassCurve(0, -432 * disc)
        assert inv_j ** 2 == 4 * inv_i ** 3 - 27 * disc
        assert short_curve.contains(point)
        checked += 1


def test_decide_examples():
    verdict = decide(PicardCurve.from_coefficients(-12, 1, -12))
    assert verdict.chow.torsion and verdict.chow.point_order == 3

    verdict = decide(PicardCurve.from_coefficients(1, 0, 1))
    assert not verdict.chow.torsion and verdict.chow.point_order is None

    verdict = decide(PicardCurve.from_coefficients(0, 0, -1))
    assert verdict.chow.torsion and verdict.chow.point_order == 2


def test_decide_family_members_order_three():
    for t in (1, 2, 5, 17):
        verdict = decide(PicardCurve.from_coefficients(-12, t, -12))
        assert verdict.chow.point_order == 3


def test_griffiths_verdict_is_constant():
    rng = random.Random(41)
    seen = set()
    for _ in range(100):
        coeffs = tuple(random_rational(rng) for _ in range(3))
        if invariants(DepressedQuartic(*coeffs)).disc == 0:
            continue
        verdict = decide(PicardCurve.from_coefficients(*coeffs))
        seen.add(verdict.chow.torsion)
        assert verdict.griffiths == "torsion"
    assert seen  # at least one curve was decided


def test_verdict_json_schema():
    curve = PicardCurve.from_coefficients(-12, 1, -12)
    payload = decide(curve).to_json()
    assert payload["curve"] == {"a": "-12", "b": "1", "c": "-12"}
    assert payload["I"] == "0" and payload["J"] == "13797"
    assert payload["disc"] == "-7050267"
    assert payload["P"] == {"x": "0", "y": "55188"}
    assert payload["chow"] == {"torsion": True, "point_order": 3}
    assert payload["griffiths"] == "torsion"
    assert decide(PicardCurve.from_coefficients(1, 0, 1)).to_json()["chow"] == {"torsion": False}


def test_one_record_per_decision():
    # The point order alone carries the Chow verdict, so torsion cannot
    # disagree with it, with or without asserts.
    assert "__init__" not in vars(ChowVerdict)
    assert ChowVerdict(3).torsion and not ChowVerdict(None).torsion
    # The verdict holds its curve; the Griffiths verdict is a class constant.
    assert CeresaVerdict.griffiths == GRIFFITHS_TORSION == "torsion"
    curve = PicardCurve.from_coefficients(-12, 1, -12)
    verdict = decide(curve)
    assert verdict.curve is curve and verdict == CeresaVerdict(curve, verdict.point, ChowVerdict(3))
    assert not hasattr(ceresa, "verdict_to_json")


def test_bielliptic_consistency_examples():
    # (a, c) = (1, 1): Q = (-3, -3) on y^2 = x^3 + 36 maps to (13, -35) on
    # y^2 = x^3 - 972, which rescales to (52, -280) = -P on the short model.
    iso = velu_3isogeny(36)
    assert iso.apply(affine(-3, -3)) == affine(13, -35)
    _, point = picard_invariant_point(PicardCurve.from_coefficients(1, 0, 1))
    assert affine(4 * 13, 8 * -35) == negate(point)
    assert bielliptic_consistency(1, 1)

    assert bielliptic_consistency(-12, -12)

    # a = 0 forces y(Q) = 0, so the image is 2-torsion.
    for c in (5, -3, Fraction(7, 2)):
        assert bielliptic_consistency(0, c)
        _, point = picard_invariant_point(PicardCurve.from_coefficients(0, 0, c))
        assert point.y == 0


def test_bielliptic_consistency_domain_errors():
    with pytest.raises(DomainError):
        bielliptic_consistency(2, 1)  # a^2 - 4c = 0
    with pytest.raises(DomainError):
        bielliptic_consistency(1, 0)  # disc = 0


def test_bielliptic_consistency_random():
    rng = random.Random(43)
    checked = 0
    while checked < 200:
        a = random_rational(rng)
        c = random_rational(rng)
        if c == 0 or a * a == 4 * c:
            continue
        assert bielliptic_consistency(a, c)
        checked += 1


def test_family_generate_examples():
    member = family_generate(3, 9, 0)
    assert member.quartic == DepressedQuartic(0, Fraction(1, 9), Fraction(1, 36))
    inv = invariants(member.quartic)
    g = Fraction(-1, 3)
    assert (inv.I, inv.J, inv.disc) == (g**2 * 3, g**3 * 9, g**6)

    member = family_generate(3, 9, 1)
    assert member.quartic == DepressedQuartic(
        Fraction(1, 2), Fraction(1, 9), Fraction(1, 144)
    )

    with pytest.raises(DomainError):
        family_generate(3, 10, 0)  # not on y^2 = 4x^3 - 27


def test_family_degenerate_parameter_is_unreachable_over_q():
    # The only rational (I, J) with J^2 = 4I^3 - 27 are (3, +-9), and there
    # g(t) = t^3 - t -+ 1/3 has no rational roots, so g(t) != 0 holds
    # automatically on rational input and family_generate needs no guard.
    from ceresa_kit.exactmath import UPoly
    from oracles import rational_roots

    assert e0_rational_torsion() == [INFINITY, affine(3, -9), affine(3, 9)]
    for j in (9, -9):
        g = UPoly([Fraction(-j, 27), -1, 0, 1])
        assert rational_roots(g) == set()


def test_family_members_inherit_the_point_order():
    rng = random.Random(47)
    for point in e0_rational_torsion():
        if point.is_infinity:
            continue
        inv_i, inv_j = point.x, point.y
        count = 0
        while count < 50:
            t = random_rational(rng, 12, 5)
            if t**3 - inv_i * t / 3 - inv_j / 27 == 0:
                continue
            member = family_generate(inv_i, inv_j, t)
            verdict = decide(member)
            assert verdict.chow.point_order == 3
            inv = invariants(member.quartic)
            # twist-normalized moduli are constant along the family
            assert inv.I**3 / inv.disc == inv_i**3
            assert inv.J**2 / inv.disc == inv_j**2
            count += 1


def test_e0_rational_torsion():
    points = e0_rational_torsion()
    assert points == [INFINITY, affine(3, -9), affine(3, 9)]
    assert Fraction(9) ** 2 == 4 * 27 - 27
    for p in points:
        if not p.is_infinity:
            member = family_generate(p.x, p.y, 0)
            assert decide(member).chow.torsion


def test_decide_commutes_with_weighted_scaling():
    rng = random.Random(53)
    checked = 0
    while checked < 60:
        coeffs = tuple(random_rational(rng, 8, 3) for _ in range(3))
        lam = random_rational(rng, 6, 4)
        if lam == 0 or invariants(DepressedQuartic(*coeffs)).disc == 0:
            continue
        base = decide(PicardCurve.from_coefficients(*coeffs))
        scaled = decide(PicardCurve(gm_scale(lam, DepressedQuartic(*coeffs))))
        assert base.chow == scaled.chow
        checked += 1


def closed_form_point_order(inv_i, inv_j, disc) -> int | None:
    """Order of (4I, 4J) on y^2 = x^3 - 432*disc, or None for infinite order.

    The rational torsion of a j = 0 curve y^2 = x^3 + D is classified: a
    point has order 2 when y = 0, order 3 when x = 0 or x^3 = -4D, order 6
    when x^3 = 8D and infinite order otherwise; with D = -432*disc these
    read as below.
    """
    if inv_j == 0:
        return 2
    if inv_i == 0 or inv_i**3 == 27 * disc:
        return 3
    if inv_i**3 == -54 * disc:
        return 6
    return None


def assert_decide_matches_closed_form(quartic: DepressedQuartic) -> int | None:
    inv = invariants(quartic)
    order = closed_form_point_order(inv.I, inv.J, inv.disc)
    assert decide(PicardCurve(quartic)).chow.point_order == order
    return order


coefficients = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@settings(max_examples=150, deadline=None)
@given(coefficients, coefficients, coefficients)
def test_decide_matches_the_closed_form_on_random_triples(a, b, c):
    quartic = DepressedQuartic(a, b, c)
    if invariants(quartic).disc != 0:
        assert_decide_matches_closed_form(quartic)


def test_decide_matches_the_closed_form_on_torsion_curves():
    order_six = DepressedQuartic(Fraction(-3, 2), Fraction(1, 3), Fraction(-1, 48))
    rng = random.Random(59)
    for _ in range(20):
        a, t = random_rational(rng, 12, 5), random_rational(rng, 12, 5)
        lam = random_rational(rng, 6, 4) or Fraction(1)
        if a != 0:
            quartic = DepressedQuartic(a, 0, a * a / 36)  # J = 0
            assert assert_decide_matches_closed_form(quartic) == 2
        for j in (9, -9):
            quartic = family_generate(3, j, t).quartic
            assert assert_decide_matches_closed_form(quartic) == 3
        assert assert_decide_matches_closed_form(gm_scale(lam, order_six)) == 6


def test_scan_examples():
    records = list(scan([-12], [1, 2, 3], [-12]))
    assert len(records) == 3
    assert all(r.verdict == VERDICT_TORSION and r.point_order == 3 for r in records)

    records = list(scan([1], [0], [1]))
    assert records[0].verdict == VERDICT_NON_TORSION
    assert records[0].point_order is None

    records = list(scan([0, 1], [0], [0, 1]))
    skipped = [r for r in records if r.verdict == VERDICT_SKIPPED]
    assert [(r.a, r.b, r.c) for r in skipped] == [(0, 0, 0), (1, 0, 0)]

    with pytest.raises(DomainError):
        scan([], [1], [1])


def test_scan_order_is_lexicographic():
    grid = ([-1, 0, 1], [0, 1], [-1, 1])
    base = list(scan(*grid))
    coords = [(r.a, r.b, r.c) for r in base]
    assert coords == sorted(coords)
    assert next(scan_csv_lines(base)) == "a,b,c,I,J,disc,verdict,point_order"


def test_decide_and_scan_evaluate_invariants_once(monkeypatch):
    calls = Counter()

    def counted(quartic):
        calls[quartic.coefficients()] += 1
        return invariants(quartic)

    monkeypatch.setattr("ceresa_kit.quartic.invariants", counted)
    decide(PicardCurve.from_coefficients(1, 0, 1))
    assert calls == {(1, 0, 1): 1}

    calls.clear()
    decided = Counter()
    monkeypatch.setattr("ceresa_kit.ceresa.decide",
                        lambda curve: decided.update([curve.quartic.coefficients()])
                        or decide(curve))
    records = list(scan([-12, 0, 1], [0, 1], [-12, 0, 1]))
    assert {r.verdict for r in records} == {VERDICT_TORSION, VERDICT_NON_TORSION,
                                            VERDICT_SKIPPED}
    assert calls == {(r.a, r.b, r.c): 1 for r in records}
    assert decided == {(r.a, r.b, r.c): 1 for r in records if r.verdict != VERDICT_SKIPPED}


def test_decide_agrees_with_torsion_enumeration():
    # Independent production routes: exhaustive multiplication up to the
    # Mazur bound vs the classification of j = 0 torsion, which uses no
    # group law.
    from ceresa_kit.elliptic import rational_torsion_j0

    rng = random.Random(67)
    decided = 0
    while decided < 80:
        coeffs = tuple(random_rational(rng, 10, 4) for _ in range(3))
        inv = invariants(DepressedQuartic(*coeffs))
        if inv.disc == 0:
            continue
        verdict = decide(PicardCurve.from_coefficients(*coeffs))
        torsion = set(rational_torsion_j0(-432 * inv.disc))
        if verdict.chow.torsion:
            assert verdict.point in torsion
            assert verdict.chow.point_order <= 6  # j = 0 torsion is at most Z/6
        else:
            assert verdict.point not in torsion
        decided += 1


def test_scan_records_agree_with_decide():
    rng = random.Random(71)
    grid = ([random_rational(rng, 6, 2) for _ in range(3)],
            [random_rational(rng, 6, 2) for _ in range(3)],
            [random_rational(rng, 6, 2) for _ in range(3)])
    for record in scan(*grid):
        inv = invariants(DepressedQuartic(record.a, record.b, record.c))
        assert (record.I, record.J, record.disc) == (inv.I, inv.J, inv.disc)
        if record.verdict == VERDICT_SKIPPED:
            assert inv.disc == 0
            continue
        verdict = decide(PicardCurve.from_coefficients(record.a, record.b, record.c))
        assert (record.verdict == VERDICT_TORSION) == verdict.chow.torsion
        assert record.point_order == verdict.chow.point_order


def test_scan_csv_rows():
    line = list(scan_csv_lines(scan([-12], [1], [-12])))[1]
    assert line == "-12,1,-12,0,13797,-7050267,torsion,3"
    line = list(scan_csv_lines(scan([0], [0], [0])))[1]
    assert line == "0,0,0,0,0,0,skipped,"


def test_scan_returns_before_any_point_is_decided(monkeypatch):
    calls = Counter()

    def counted(quartic):
        calls[quartic.coefficients()] += 1
        return invariants(quartic)

    monkeypatch.setattr("ceresa_kit.quartic.invariants", counted)
    records = scan([-12, 1], [1], [-12])
    assert not calls
    assert next(records).verdict == VERDICT_TORSION
    assert calls == {(-12, 1, -12): 1}
