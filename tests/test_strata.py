from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ceresa_kit.ceresa import PicardCurve, decide
from ceresa_kit.errors import DomainError, quoted
from ceresa_kit.repcrit import chow_criterion_applies, griffiths_criterion_applies, preset_profile
from ceresa_kit.strata import (
    CHOW_TORSION_STRATA,
    GRIFFITHS_TORSION_STRATA,
    STRATA,
    StratumRecord,
    labels,
    mutated_table,
    stratum_info,
    verdict_consistency,
)

EXPECTED_DIMS = {
    "Id": 6, "C2": 4, "C2xC2": 3, "C3": 2, "D4": 2, "S3": 2,
    "C6": 1, "G16": 1, "S4": 1, "C9": 0, "G48": 0, "G96": 0, "GL3F2": 0,
}

EXPECTED_EDGES = {
    ("Id", "C2"), ("Id", "C3"),
    ("C2", "C2xC2"), ("C2", "S3"), ("C2", "C6"),
    ("C2xC2", "D4"),
    ("C3", "C6"), ("C3", "C9"),
    ("D4", "G16"), ("D4", "S4"),
    ("S3", "S4"),
    ("C6", "G48"),
    ("G16", "G96"), ("G16", "G48"),
    ("S4", "GL3F2"), ("S4", "G96"),
}


def test_stratum_info_examples():
    record = stratum_info("C9")
    assert record.dim == 0
    assert record.chow_torsion and record.griffiths_torsion
    assert record.model_equation == "y^3 z = x^4 + x z^3"

    record = stratum_info("GL3F2")
    assert record.dim == 0
    assert not record.chow_torsion and not record.griffiths_torsion

    record = stratum_info("C2")
    assert record.dim == 4
    assert not record.chow_torsion and not record.griffiths_torsion

    with pytest.raises(DomainError):
        stratum_info("C5")


def test_stratum_json():
    expected = {
        "C3": {"label": "C3", "dim": 2, "closure_children": ["C6", "C9"],
               "chow_torsion": False, "griffiths_torsion": True, "gap_label": None,
               "model_equation": "y^3 = x^4 + a*x^2 + b*x + c"},
        "G16": {"label": "G16", "dim": 1, "closure_children": ["G96", "G48"],
                "chow_torsion": False, "griffiths_torsion": False, "gap_label": "(16,13)",
                "model_equation": None},
        "G48": {"label": "G48", "dim": 0, "closure_children": [],
                "chow_torsion": True, "griffiths_torsion": True, "gap_label": "(48,33)",
                "model_equation": "y^3 z = x^4 + z^4"},
    }
    for label, document in expected.items():
        assert list(STRATA[label].to_json().items()) == list(document.items())


def test_dims_match_the_diagram():
    assert {label: stratum_info(label).dim for label in labels()} == EXPECTED_DIMS


def test_verdict_sets():
    assert {r.label for r in STRATA.values() if r.chow_torsion} == {"C9", "G48"}
    assert {r.label for r in STRATA.values() if r.griffiths_torsion} == {
        "C3", "C6", "C9", "G48",
    }
    assert set(CHOW_TORSION_STRATA) == {"C9", "G48"}
    assert set(GRIFFITHS_TORSION_STRATA) == {"C3", "C6", "C9", "G48"}
    for record in STRATA.values():
        assert not record.chow_torsion or record.griffiths_torsion


def test_poset_edges_match_the_diagram():
    edges = {
        (record.label, child)
        for record in STRATA.values()
        for child in record.closure_children
    }
    assert edges == EXPECTED_EDGES
    assert len(STRATA) == 13


def test_gap_labels():
    assert stratum_info("G16").gap_label == "(16,13)"
    assert stratum_info("G48").gap_label == "(48,33)"
    assert stratum_info("G96").gap_label == "(96,64)"


def test_consistency_on_shipped_table():
    assert verdict_consistency()
    assert verdict_consistency(STRATA)


def test_consistency_fails_on_every_verdict_flag_mutation():
    for label in labels():
        for field in ("chow_torsion", "griffiths_torsion"):
            assert not verdict_consistency(mutated_table(label, field)), (label, field)


def test_an_unknown_verdict_flag_is_quoted_short():
    field = "x" * 3000
    with pytest.raises(DomainError) as refusal:
        mutated_table("C9", field)
    assert str(refusal.value) == f"not a verdict flag: {quoted(field)}"
    assert len(str(refusal.value)) < 70


def test_consistency_fails_on_poset_breakage():
    # toggling G48's griffiths verdict also breaks the downward closure from C6
    table = mutated_table("C9", "griffiths_torsion")
    assert not verdict_consistency(table)
    table = dict(STRATA)
    del table["S3"]  # a closure child of C2 that is missing from the table
    assert not verdict_consistency(table)
    # S3 as high as its closure parent C2 (dim 4)
    table = {**STRATA, "S3": StratumRecord("S3", 4, ("S4",), False, False, None, None)}
    assert not verdict_consistency(table)


def test_preset_criteria_match_stratum_verdicts():
    # among the shipped presets the chow criterion holds exactly for the C9 one
    presets = {"picard_c3": "C3", "c9_x4px": "C9", "klein_c7": "GL3F2"}
    chow_true = {
        name for name in presets if chow_criterion_applies(preset_profile(name))
    }
    assert chow_true == {"c9_x4px"}
    assert stratum_info("C9").chow_torsion
    assert griffiths_criterion_applies(preset_profile("picard_c3"))
    assert stratum_info("C3").griffiths_torsion


nonzero = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**3).filter(bool)


@settings(max_examples=50, deadline=None)
@given(nonzero, nonzero)
@example(Fraction(5), Fraction(7))
@example(Fraction(3, 7), Fraction(-5, 3))
def test_decide_witnesses_the_picard_strata_rows(b, c):
    # The four strata of Picard curves y^3 = x^4 + ax^2 + bx + c: C9 holds the
    # twists of y^3 = x^4 + x and G48 those of y^3 = x^4 + 1, both torsion at
    # the Chow level; C3 and C6 each have a stored non-torsion member.
    # Criterion (B) makes every Picard curve Griffiths-torsion.
    witnesses = {"C9": ((0, b, 0), 3), "G48": ((0, 0, c), 2),
                 "C3": ((1, 1, 1), None), "C6": ((1, 0, 1), None)}
    for label, (coeffs, order) in witnesses.items():
        verdict = decide(PicardCurve.from_coefficients(*coeffs))
        record = stratum_info(label)
        assert verdict.chow.point_order == order, (label, coeffs)
        assert verdict.chow.torsion == record.chow_torsion
        assert verdict.griffiths == "torsion" and record.griffiths_torsion
