"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact; every comparison below is equality of Fractions,
with zero tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


from ceresa_kit import ceresa, elliptic, repcrit, strata
from ceresa_kit.ceresa import PicardCurve, decide, family_generate
from ceresa_kit.elliptic import INFINITY, WeierstrassCurve, affine, scalar_mul
from ceresa_kit.exactmath import UPoly
from ceresa_kit.quartic import DepressedQuartic, invariants
from oracles import (
    poly_discriminant,
    random_rational,
    torsion_points_bruteforce,
    wedge3_invariants_bruteforce,
)


def report(n: int, text: str) -> None:
    print(f"[acceptance] criterion {n:2d}: PASS - {text}")


def test_criterion_01_syzygy_and_discriminant_cross_check():
    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = (random_rational(rng) for _ in range(3))
        inv = invariants(DepressedQuartic(a, b, c))
        assert inv.J**2 == 4 * inv.I**3 - 27 * inv.disc
        assert poly_discriminant(UPoly([c, b, a, 0, 1])) == inv.disc
    report(1, "syzygy J^2 = 4I^3 - 27*disc and resultant cross-check, 1000 samples")


def test_criterion_02_x4_x2_1_is_non_torsion():
    verdict = decide(PicardCurve.from_coefficients(1, 0, 1))
    assert not verdict.chow.torsion
    curve = WeierstrassCurve(0, -62208)
    point = affine(52, 280)
    assert verdict.point == point
    for n in range(1, 13):
        assert not scalar_mul(curve, n, point).is_infinity
    report(2, "x^4 + x^2 + 1 -> non-torsion, verified by exhaustive n <= 12")


def test_criterion_03_family_members_are_torsion_three():
    for t in (1, 2, 5, 17):
        verdict = decide(PicardCurve.from_coefficients(-12, t, -12))
        assert verdict.chow.torsion and verdict.chow.point_order == 3
    report(3, "x^4 - 12x^2 + tx - 12 -> torsion(3) for t in {1, 2, 5, 17}")


def test_criterion_04_torsion_two_and_generated_families():
    verdict = decide(PicardCurve.from_coefficients(0, 0, -1))
    assert verdict.chow.torsion and verdict.chow.point_order == 2

    rng = random.Random(104)
    count = 0
    while count < 50:
        t = random_rational(rng, 15, 6)
        if t**3 - t - Fraction(1, 3) == 0:
            continue
        member = family_generate(3, 9, t)
        v = decide(member)
        assert v.chow.torsion and v.chow.point_order == 3
        inv = invariants(member.quartic)
        assert inv.I**3 / inv.disc == 27  # I^3 of the base pair
        assert inv.J**2 / inv.disc == 81  # J^2 of the base pair
        count += 1
    report(4, "x^4 - 1 -> torsion(2); 50 family members -> torsion(3), "
              "twist-normalized invariants constant")


def test_criterion_05_e0_torsion_matches_division_polynomial_oracle():
    points = ceresa.e0_rational_torsion()
    assert points == [INFINITY, affine(3, -9), affine(3, 9)]
    oracle = torsion_points_bruteforce(0, -432)
    assert elliptic.rational_torsion_j0(-432) == oracle
    assert [p if p.is_infinity else affine(p.x / 4, p.y / 4) for p in oracle] == points
    report(5, "E0 torsion = {O, (3, +-9)}, matching the division-polynomial oracle")


def test_criterion_06_bielliptic_consistency_random():
    rng = random.Random(106)
    checked = 0
    while checked < 200:
        a = random_rational(rng)
        c = random_rational(rng)
        if c == 0 or a * a == 4 * c:
            continue
        assert ceresa.bielliptic_consistency(a, c)
        checked += 1
    report(6, "bielliptic isogeny route agrees with the invariant point, "
              "200 random (a, c)")


def test_criterion_07_griffiths_verdict_is_constant():
    rng = random.Random(107)
    decided = 0
    for _ in range(300):
        coeffs = tuple(random_rational(rng) for _ in range(3))
        if invariants(DepressedQuartic(*coeffs)).disc == 0:
            continue
        assert decide(PicardCurve.from_coefficients(*coeffs)).griffiths == "torsion"
        decided += 1
    assert decided >= 200
    report(7, f"griffiths verdict is torsion for every input ({decided} curves)")


def test_criterion_08_repcrit_presets_and_brute_force():
    assert repcrit.dim_inv_wedge3(repcrit.preset_profile("picard_c3"), "V") == 0
    assert repcrit.chow_criterion_applies(repcrit.preset_profile("c9_x4px"))
    assert not repcrit.griffiths_criterion_applies(repcrit.preset_profile("klein_c7"))
    for name in ("picard_c3", "c9_x4px", "klein_c7"):
        profile = repcrit.preset_profile(name)
        gen = profile.classes[1].exps
        assert repcrit.dim_inv_wedge3(profile, "V") == wedge3_invariants_bruteforce(
            gen, profile.level
        )
    rng = random.Random(108)
    for _ in range(100):
        order = rng.randint(3, 15)
        gen = tuple(rng.randrange(order) for _ in range(rng.randint(3, 12)))
        profile = repcrit.cyclic_profile(order, gen)
        assert repcrit.dim_inv_wedge3(profile, "V") == wedge3_invariants_bruteforce(
            gen, order
        )
    report(8, "presets reproduce the expected dims/criteria; 100 random cyclic "
              "profiles match the triple enumerator")


def test_criterion_09_dihedral_verdicts_and_exhaustive_agreement():
    expectations = {
        (5, 1, 2): (4, True),
        (6, 1, 2): (4, True),
        (9, 1, 3): (6, True),
        (12, 3, 4): (6, True),
        (15, 3, 5): (8, True),
        (7, 1, 2): (6, False),
    }
    for (m, a, b), (genus, vanishing) in expectations.items():
        assert repcrit.dihedral_genus(m, a, b) == genus
        assert repcrit.dihedral_vanishing(m, a, b) == vanishing
    checked = 0
    for m in range(3, 41):
        for a in range(1, m):
            for b in range(a + 1, m):
                if 2 * b >= m or math.gcd(m, math.gcd(a, b)) != 1:
                    continue
                triple_free = repcrit.dihedral_witness_triple(m, a, b) is None
                dim = repcrit.dim_inv_wedge3(repcrit.dihedral_profile(m, a, b), "V")
                assert triple_free == (dim == 0)
                assert repcrit.dihedral_vanishing(m, a, b) == triple_free
                checked += 1
    assert checked > 100
    report(9, f"dihedral verdicts and genus values match; triple criterion == "
              f"invariant dimension on all {checked} valid (m, a, b), m <= 40")


def test_criterion_10_strata_table_and_mutation_sensitivity():
    chow_set = {r.label for r in strata.STRATA.values() if r.chow_torsion}
    griffiths_set = {r.label for r in strata.STRATA.values() if r.griffiths_torsion}
    assert chow_set == {"C9", "G48"}
    assert griffiths_set == {"C3", "C6", "C9", "G48"}
    dims = {label: strata.stratum_info(label).dim for label in strata.labels()}
    assert dims == {
        "Id": 6, "C2": 4, "C2xC2": 3, "C3": 2, "D4": 2, "S3": 2,
        "C6": 1, "G16": 1, "S4": 1, "C9": 0, "G48": 0, "G96": 0, "GL3F2": 0,
    }
    edges = {
        (r.label, child)
        for r in strata.STRATA.values()
        for child in r.closure_children
    }
    assert len(edges) == 16 and ("C3", "C9") in edges and ("Id", "C3") in edges
    assert strata.verdict_consistency()
    for label in strata.labels():
        for field in ("chow_torsion", "griffiths_torsion"):
            assert not strata.verdict_consistency(strata.mutated_table(label, field))
    report(10, "strata verdicts/dims/poset as expected; consistency passes and "
               "fails on all 26 single-flag mutations")


def test_criterion_11_scan_determinism(tmp_path):
    from ceresa_kit.cli import main

    grid = ["--a-range", "-2:2", "--b-range", "-2:2", "--c-range", "-2:2"]
    blobs = []
    for threads in (1, 4, 8):
        path = tmp_path / f"scan_{threads}.csv"
        assert main(["scan", *grid, "--threads", str(threads), "--out", str(path)]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    assert len(blobs[0].splitlines()) == 126  # header + 5*5*5 rows
    report(11, "5x5x5 scan CSV byte-identical at 1, 4, and 8 threads")
