"""Value semantics of the package's records, and what importing it loads."""

from __future__ import annotations

import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ceresa_kit
from ceresa_kit import (
    ActionProfile,
    ChowVerdict,
    ConjClass,
    DepressedQuartic,
    ECPoint,
    PicardCurve,
    UPoly,
    WeierstrassCurve,
    cyclic_profile,
    decide,
    invariants,
    scan,
    stratum_info,
    velu_3isogeny,
)
from ceresa_kit.value import Value
from oracles import CycNum

CURVE = PicardCurve.from_coefficients(-12, 1, -12)

# One record of every public record class, its field names in constructor
# order, and its repr (the frozen-dataclass format).
RECORDS = [
    (ECPoint(Fraction(12), Fraction(-36)), ("x", "y"),
     "ECPoint(x=Fraction(12, 1), y=Fraction(-36, 1))"),
    (ECPoint(None, None), ("x", "y"), "ECPoint(x=None, y=None)"),
    (WeierstrassCurve(0, -432), ("A", "B"),
     "WeierstrassCurve(A=Fraction(0, 1), B=Fraction(-432, 1))"),
    (velu_3isogeny(2), ("D", "source", "target"),
     "Isogeny3(D=Fraction(2, 1), source=WeierstrassCurve(A=Fraction(0, 1), "
     "B=Fraction(2, 1)), target=WeierstrassCurve(A=Fraction(0, 1), B=Fraction(-54, 1)))"),
    (DepressedQuartic(1, "-1/2", 3), ("a", "b", "c"),
     "DepressedQuartic(a=Fraction(1, 1), b=Fraction(-1, 2), c=Fraction(3, 1))"),
    (invariants(DepressedQuartic(1, 0, 1)), ("I", "J", "disc"),
     "QuarticInvariants(I=Fraction(13, 1), J=Fraction(70, 1), disc=Fraction(144, 1))"),
    (CURVE, ("quartic",),
     "PicardCurve(quartic=DepressedQuartic(a=Fraction(-12, 1), b=Fraction(1, 1), "
     "c=Fraction(-12, 1)))"),
    (ChowVerdict(3), ("point_order",), "ChowVerdict(point_order=3)"),
    (ChowVerdict(None), ("point_order",), "ChowVerdict(point_order=None)"),
    (decide(CURVE), ("curve", "point", "chow"),
     "CeresaVerdict(curve=PicardCurve(quartic=DepressedQuartic(a=Fraction(-12, 1), "
     "b=Fraction(1, 1), c=Fraction(-12, 1))), point=ECPoint(x=Fraction(0, 1), "
     "y=Fraction(55188, 1)), chow=ChowVerdict(point_order=3))"),
    (next(scan([0], [1], [-1])), ("a", "b", "c", "I", "J", "disc", "verdict", "point_order"),
     "ScanRecord(a=Fraction(0, 1), b=Fraction(1, 1), c=Fraction(-1, 1), I=Fraction(-12, 1), "
     "J=Fraction(-27, 1), disc=Fraction(-283, 1), verdict='non_torsion', point_order=None)"),
    (ConjClass(2, (0, 1, 2)), ("size", "exps"), "ConjClass(size=2, exps=(0, 1, 2))"),
    (ActionProfile(2, 2, (ConjClass(1, (0, 0, 0)), ConjClass(1, (1, 1, 3)))),
     ("group_order", "level", "classes"),
     "ActionProfile(group_order=2, level=2, classes=(ConjClass(size=1, exps=(0, 0, 0)), "
     "ConjClass(size=1, exps=(1, 1, 1))))"),
    (cyclic_profile(7, (1, 2, -3)), ("group_order", "generator"),
     "CyclicProfile(group_order=7, generator=(1, 2, 4))"),
    (stratum_info("G48"),
     ("label", "dim", "closure_children", "chow_torsion", "griffiths_torsion",
      "gap_label", "model_equation"),
     "StratumRecord(label='G48', dim=0, closure_children=(), chow_torsion=True, "
     "griffiths_torsion=True, gap_label='(48,33)', model_equation='y^3 z = x^4 + z^4')"),
    (UPoly([1, 0, "2/3"]), ("coeffs",),
     "UPoly(coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(2, 3)))"),
]
RECORD_FIELDS = [(record, fields) for record, fields, _ in RECORDS]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


def field_values(record, fields) -> tuple:
    return tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("record, fields", RECORD_FIELDS, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(record, fields):
    values = field_values(record, fields)
    rebuilt = type(record)(*values)
    assert rebuilt == record and not rebuilt != record
    assert hash(rebuilt) == hash(record) == hash(values)
    assert {record, rebuilt} == {record}
    assert record != values  # a record is not a tuple
    for other, _, _ in RECORDS:
        if type(other) is not type(record):
            assert record.__eq__(other) is NotImplemented
            assert record != other


def test_records_differing_in_one_field_are_unequal():
    assert ECPoint(Fraction(1), Fraction(2)) != ECPoint(Fraction(1), Fraction(3))
    assert ChowVerdict(2) != ChowVerdict(3)
    assert ConjClass(1, (0, 1)) != ConjClass(2, (0, 1))
    assert cyclic_profile(7, (1, 2, 4)) != cyclic_profile(7, (1, 2, 3))
    assert cyclic_profile(7, (1, 2, 4)) == cyclic_profile(7, (8, -5, 11))


@pytest.mark.parametrize("record, fields", RECORD_FIELDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields):
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record, fields", RECORD_FIELDS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trips(record, fields):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert type(clone) is type(record) and clone == record
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
        assert hash(clone) == hash(record)


@pytest.mark.parametrize("record, expected", [(r, text) for r, _, text in RECORDS], ids=IDS)
def test_repr_matches_the_dataclass_format(record, expected):
    assert repr(record) == expected


# Every record whose class inherits Value.to_json, plus a stratum without
# GAP label or model equation.
JSON_RECORDS = [record for record, _, _ in RECORDS
                if type(record).to_json is Value.to_json] + [stratum_info("Id")]


def assert_json_follows_fields(value, document):
    if isinstance(value, Value) and type(value).to_json is Value.to_json:
        assert list(document) == list(value._fields)
        for name, item in zip(value._fields, value._astuple(value)):
            assert_json_follows_fields(item, document[name])
    elif isinstance(value, tuple):
        assert isinstance(document, list) and len(document) == len(value)
        for item, entry in zip(value, document):
            assert_json_follows_fields(item, entry)
    elif isinstance(value, Fraction):
        assert document == str(value)  # "p/q", exact
    elif not isinstance(value, Value):
        assert document == value


@pytest.mark.parametrize("record", JSON_RECORDS,
                         ids=[type(record).__name__ for record in JSON_RECORDS])
def test_inherited_to_json_writes_the_fields_in_order(record):
    document = record.to_json()
    assert_json_follows_fields(record, document)
    assert json.loads(json.dumps(document)) == document


def test_json_records_cover_every_class_inheriting_to_json():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    inheriting = {cls for cls in subclasses(Value)
                  if cls.__module__.startswith("ceresa_kit.") and cls.to_json is Value.to_json}
    assert inheriting == {type(record) for record in JSON_RECORDS}


def test_readme_verdict_repr():
    assert repr(decide(CURVE).chow) == "ChowVerdict(point_order=3)"


def test_picard_curve_invariants_stay_out_of_eq_hash_and_repr():
    assert CURVE.invariants == invariants(CURVE.quartic)
    assert "invariants" not in repr(CURVE)
    assert hash(CURVE) == hash((CURVE.quartic,))
    for clone in (copy.copy(CURVE), copy.deepcopy(CURVE), pickle.loads(pickle.dumps(CURVE))):
        assert clone == CURVE and clone.invariants == CURVE.invariants
    with pytest.raises(AttributeError):
        CURVE.invariants = None  # type: ignore[misc]


def test_cycnum_keeps_its_own_equality_and_stays_unhashable():
    z = CycNum(4, UPoly([0, 0, 1]))  # i^2 = -1
    assert z == -1 and z == CycNum(4, UPoly([-1]))
    assert repr(z) == "CycNum(level=4, -1)"
    with pytest.raises(TypeError):
        hash(z)
    for clone in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert clone == z
    with pytest.raises(AttributeError):
        z.level = 8  # type: ignore[misc]


def test_wrong_arity_is_a_type_error():
    with pytest.raises(TypeError):
        ECPoint(Fraction(1))
    with pytest.raises(TypeError):
        ChowVerdict(3, None)


# Every package module that `import ceresa_kit` loaded when the records were
# dataclasses; none of them may become a deferred import.
EAGER_MODULES = {
    "ceresa_kit", "ceresa_kit.ceresa", "ceresa_kit.elliptic", "ceresa_kit.errors",
    "ceresa_kit.exactmath", "ceresa_kit.quartic", "ceresa_kit.repcrit",
    "ceresa_kit.strata",
}


def loaded_modules(*flags: str) -> set[str]:
    src = str(Path(ceresa_kit.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import ceresa_kit.cli\n"
        "ceresa_kit.cli.build_parser()\n"
        "print('\\n'.join(sys.modules))\n"
    )
    done = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor json: the CLI writes its own JSON (`cli._json_text`)
    modules = loaded_modules("-I")
    assert not {"dataclasses", "inspect", "json"} & modules
    assert EAGER_MODULES <= modules


def test_cli_import_without_site_loads_no_typing():
    modules = loaded_modules("-I", "-S")
    assert not {"dataclasses", "inspect", "typing", "json"} & modules
    assert EAGER_MODULES <= modules
