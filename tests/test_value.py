"""Value semantics of the package's records, and what importing it loads."""

from __future__ import annotations

import copy
import importlib
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


# The package modules that importing the CLI and building its full parser
# load: the CLI, its error types and the literal grammar its parser reads.
# Each handler imports the kernel modules it runs, and the package resolves
# its exports on first use, so the cold path loads no kernel module and no
# `fractions` (nor, through it, `decimal`).
COLD_MODULES = {"ceresa_kit", "ceresa_kit.cli", "ceresa_kit.errors", "ceresa_kit.literals"}
COLD_PATH = ("import ceresa_kit.cli", "ceresa_kit.cli.build_parser()")
SITE_FLAGS = [("-I",), ("-I", "-S")]


def loaded_modules(flags: tuple[str, ...], *lines: str) -> set[str]:
    """The modules a fresh interpreter run with `flags` has loaded after `lines`."""
    src = str(Path(ceresa_kit.__file__).resolve().parent.parent)
    code = "\n".join(("import sys", f"sys.path.insert(0, {src!r})", *lines,
                      "print('\\n'.join(sys.modules))"))
    done = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def package_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name.partition(".")[0] == "ceresa_kit"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor json: the CLI writes its own JSON (`cli._json_text`)
    modules = loaded_modules(("-I",), *COLD_PATH)
    assert not {"dataclasses", "inspect", "json"} & modules
    assert package_modules(modules) == COLD_MODULES
    assert not {"fractions", "decimal"} & modules


def test_cli_import_without_site_loads_no_typing():
    modules = loaded_modules(("-I", "-S"), *COLD_PATH)
    assert not {"dataclasses", "inspect", "typing", "json"} & modules
    assert package_modules(modules) == COLD_MODULES
    assert not {"fractions", "decimal"} & modules


@pytest.mark.parametrize("flags", SITE_FLAGS, ids=" ".join)
def test_importing_the_package_loads_no_submodule(flags):
    modules = loaded_modules(flags, "import ceresa_kit")
    assert package_modules(modules) == {"ceresa_kit"}
    assert not {"fractions", "decimal"} & modules


_ARITH = {"exactmath", "literals", "value"}
_TORSION = {"ceresa", "elliptic", "quartic", *_ARITH}
# One call of each subcommand, plain unless said otherwise, its exit code and
# the package modules it loads beyond COLD_MODULES: exactly these, no others.
CALL_MODULES = [
    (["--help"], 0, set()),
    (["decide", "-a"], 1, set()),  # a usage error
    (["invariants", "-a", "1", "-b", "0", "-c", "1"], 0, {"quartic", *_ARITH}),
    (["decide", "-a", "1", "-b", "0", "-c", "1"], 0, _TORSION),
    (["torsion", "-A", "0", "-B", "1", "-x", "2", "-y", "3"], 0, {"elliptic", *_ARITH}),
    (["family", "-I", "3", "-J", "9", "-t", "5"], 0, _TORSION),
    (["e0-torsion"], 0, _TORSION),
    (["bielliptic", "-a", "1", "-c", "1"], 0, _TORSION),
    (["repcrit", "--profile", "picard_c3"], 0, {"repcrit", *_ARITH}),
    (["dihedral", "-m", "15", "-a", "1", "-b", "3"], 0, {"repcrit", *_ARITH}),
    (["strata", "--check"], 0, {"strata", "value"}),
    (["scan", "--a-range", "0,1", "--b-range", "1", "--c-range", "1"], 0, _TORSION),
]


@pytest.mark.parametrize("flags", SITE_FLAGS, ids=" ".join)
@pytest.mark.parametrize("argv, code, kernel", CALL_MODULES,
                         ids=[" ".join(argv) for argv, _, _ in CALL_MODULES])
def test_each_call_loads_only_the_modules_it_runs(flags, argv, code, kernel):
    modules = loaded_modules(flags, "import contextlib, io", "import ceresa_kit.cli",
                             "with contextlib.redirect_stdout(io.StringIO()), "
                             "contextlib.redirect_stderr(io.StringIO()):",
                             f"    assert ceresa_kit.cli.main({argv!r}) == {code}")
    assert package_modules(modules) == COLD_MODULES | {f"ceresa_kit.{m}" for m in kernel}
    # `value` reads `Fraction`, so every kernel module loads `fractions`.
    assert ("fractions" in modules) == bool(kernel)
    assert not {"dataclasses", "inspect"} & modules


# The package's exports by defining module, as `ceresa_kit/__init__` listed
# them when it imported every module; each resolves on first use.
EXPORTS = {
    "errors": ("DomainError", "ProfileError"),
    "exactmath": ("UPoly", "cyclotomic_polynomial", "rat"),
    "quartic": ("DepressedQuartic", "QuarticInvariants", "from_invariant_point", "gm_scale",
                "invariants", "moduli_equal_geometric", "moduli_equal_rational"),
    "elliptic": ("ECPoint", "INFINITY", "WeierstrassCurve", "add", "affine", "negate",
                 "rational_torsion_j0", "scalar_mul", "torsion_order_q", "velu_3isogeny"),
    "ceresa": ("CeresaVerdict", "ChowVerdict", "PicardCurve", "bielliptic_consistency", "decide",
               "e0_rational_torsion", "family_generate", "picard_invariant_point", "scan"),
    "repcrit": ("ActionProfile", "ConjClass", "CyclicProfile", "chow_criterion_applies",
                "cyclic_profile", "dihedral_genus", "dihedral_profile", "dihedral_vanishing",
                "dim_inv_wedge3", "griffiths_criterion_applies", "preset_profile"),
    "strata": ("StratumRecord", "stratum_info", "verdict_consistency"),
}


def test_every_export_is_its_defining_modules_object_and_listed_by_dir():
    names = [(module, name) for module, names in EXPORTS.items() for name in names]
    assert len(names) == 45
    listed = dir(ceresa_kit)
    for module, name in names:
        defining = importlib.import_module(f"ceresa_kit.{module}")
        assert getattr(ceresa_kit, name) is getattr(defining, name), name
        assert name in listed, name
    assert "__version__" in listed and listed == sorted(listed)


def test_every_submodule_the_package_once_bound_is_an_attribute():
    # `import ceresa_kit` once imported them all; each now loads when first read.
    listed = dir(ceresa_kit)
    for module in (*EXPORTS, "value"):
        assert getattr(ceresa_kit, module) is importlib.import_module(f"ceresa_kit.{module}")
        assert module in listed, module
    modules = loaded_modules(("-I",), "import ceresa_kit",
                             "assert ceresa_kit.repcrit.preset_profile('picard_c3').dim == 3")
    assert package_modules(modules) == {"ceresa_kit", "ceresa_kit.repcrit", *(
        f"ceresa_kit.{m}" for m in ("errors", "exactmath", "literals", "value"))}


def test_an_unknown_export_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'ceresa_kit' has no attribute 'nope'$"):
        getattr(ceresa_kit, "nope")


def test_the_readme_import_loads_what_it_names():
    modules = loaded_modules(("-I",), "from ceresa_kit import PicardCurve, decide, family_generate",
                             "assert decide(family_generate(3, 9, t=5)).chow.point_order == 3")
    kernel = {"ceresa_kit", "ceresa_kit.errors", *(f"ceresa_kit.{m}" for m in _TORSION)}
    assert package_modules(modules) == kernel
