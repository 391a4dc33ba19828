"""The automorphism stratification of non-hyperelliptic genus-3 curves.

Thirteen strata, one per automorphism group of a smooth plane quartic,
ordered by closure: an edge G -> H in ``closure_children`` means the
stratum of H lies in the closure of the stratum of G, one step down the
diagram.  Each record carries the stratum dimension and the two Ceresa
verdicts: ``chow_torsion`` (the class is torsion modulo rational
equivalence for every curve of the stratum) holds exactly for C9 and G48;
``griffiths_torsion`` (torsion modulo algebraic equivalence) holds exactly
for the strata inside the closure of the Picard locus: C3, C6, C9, G48.

The table is static transcription; ``verdict_consistency`` guards it.  The
test suite (tier 1) and ``ceresa-kit strata --check`` run that check;
importing the module does not.
"""

from __future__ import annotations

from .errors import DomainError, quoted
from .value import Value


class StratumRecord(Value):
    __slots__ = _fields = (
        "label", "dim", "closure_children", "chow_torsion", "griffiths_torsion",
        "gap_label", "model_equation",
    )
    label: str
    dim: int
    closure_children: tuple[str, ...]
    chow_torsion: bool
    griffiths_torsion: bool
    gap_label: str | None
    model_equation: str | None


_RECORDS = (
    StratumRecord("Id", 6, ("C2", "C3"), False, False, None, None),
    StratumRecord("C2", 4, ("C2xC2", "S3", "C6"), False, False, None, None),
    StratumRecord("C2xC2", 3, ("D4",), False, False, None, None),
    StratumRecord("C3", 2, ("C6", "C9"), False, True, None, "y^3 = x^4 + a*x^2 + b*x + c"),
    StratumRecord("D4", 2, ("G16", "S4"), False, False, None, None),
    StratumRecord("S3", 2, ("S4",), False, False, None, None),
    StratumRecord("C6", 1, ("G48",), False, True, None, "y^3 = x^4 + a*x^2 + c"),
    StratumRecord("G16", 1, ("G96", "G48"), False, False, "(16,13)", None),
    StratumRecord("S4", 1, ("GL3F2", "G96"), False, False, None, None),
    StratumRecord("C9", 0, (), True, True, None, "y^3 z = x^4 + x z^3"),
    StratumRecord("G48", 0, (), True, True, "(48,33)", "y^3 z = x^4 + z^4"),
    StratumRecord("G96", 0, (), False, False, "(96,64)", "x^4 + y^4 + z^4 = 0"),
    StratumRecord("GL3F2", 0, (), False, False, None, "x^3 y + y^3 z + z^3 x = 0"),
)

STRATA: dict[str, StratumRecord] = {record.label: record for record in _RECORDS}

CHOW_TORSION_STRATA = frozenset({"C9", "G48"})
GRIFFITHS_TORSION_STRATA = frozenset({"C3", "C6", "C9", "G48"})


def labels() -> tuple[str, ...]:
    return tuple(record.label for record in _RECORDS)


def stratum_info(label: str) -> StratumRecord:
    try:
        return STRATA[label]
    except KeyError:
        raise DomainError(f"unknown stratum {quoted(label)}; known: {', '.join(labels())}")


def verdict_consistency(table: dict[str, StratumRecord] | None = None) -> bool:
    """Consistency check of a stratum table (the shipped one by default).

    Checks that verdicts propagate down the closure poset (a stratum in the
    closure of a vanishing stratum also vanishes), that dimensions strictly
    drop along closure edges, that Chow-level torsion implies
    Griffiths-level torsion on each record, and that the two verdict sets
    are exactly the known ones.  Any single verdict-flag edit breaks the
    last check.
    """
    if table is None:
        table = STRATA
    for record in table.values():
        if record.chow_torsion and not record.griffiths_torsion:
            return False
        for child_label in record.closure_children:
            child = table.get(child_label)
            if child is None:
                return False
            if child.dim >= record.dim:
                return False
            if record.chow_torsion and not child.chow_torsion:
                return False
            if record.griffiths_torsion and not child.griffiths_torsion:
                return False
    chow_set = {r.label for r in table.values() if r.chow_torsion}
    griffiths_set = {r.label for r in table.values() if r.griffiths_torsion}
    return chow_set == set(CHOW_TORSION_STRATA) and griffiths_set == set(
        GRIFFITHS_TORSION_STRATA
    )


def mutated_table(label: str, field: str) -> dict[str, StratumRecord]:
    """Copy of the shipped table with one verdict flag toggled (for testing)."""
    if field not in ("chow_torsion", "griffiths_torsion"):
        raise DomainError(f"not a verdict flag: {quoted(field)}")
    record = stratum_info(label)
    values = [not value if name == field else value
              for name, value in zip(record._fields, record._astuple(record))]
    table = dict(STRATA)
    table[label] = StratumRecord(*values)
    return table

