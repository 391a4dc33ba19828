"""Independent checks of the CLI's outputs.

Nothing here imports the package under test.  Quartic invariants are
recomputed from their defining formulas, the torsion verdict comes from the
classification of rational torsion on j = 0 curves, and invariant
dimensions of exterior cubes come from counting exponent triples.  Each
check returns None for an accepted output, or the reason for rejecting it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import product

SCAN_HEADER = "a,b,c,I,J,disc,verdict,point_order"

# (order n, generator exponents at level n) of the repcrit presets, as
# documented in the README and the preset docstrings.
PRESETS = {
    "picard_c3": (3, (1, 1, 2)),
    "c9_x4px": (9, (1, 4, 2)),
    "klein_c7": (7, (1, 2, 4)),
}


def invariants(a: Fraction, b: Fraction, c: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(I, J, disc) of x^4 + a x^2 + b x + c."""
    inv_i = a * a + 12 * c
    inv_j = 72 * a * c - 2 * a**3 - 27 * b * b
    disc = (
        -4 * a**3 * b**2 - 27 * b**4 + 16 * a**4 * c
        + 144 * a * b**2 * c - 128 * a**2 * c**2 + 256 * c**3
    )
    return inv_i, inv_j, disc


def point_order(inv_i: Fraction, inv_j: Fraction, disc: Fraction) -> int | None:
    """Order of (4I, 4J) on y^2 = x^3 - 432*disc, or None for infinite order.

    The rational torsion of a j = 0 curve is classified: the point has
    order 2 when y = 0, order 3 when x = 0 or x^3 = -4D, order 6 when
    x^3 = 8D, and infinite order otherwise.  With D = -432*disc these
    conditions read as below.
    """
    if inv_j == 0:
        return 2
    if inv_i == 0 or inv_i**3 == 27 * disc:
        return 3
    if inv_i**3 == -54 * disc:
        return 6
    return None


def check_decide(coeffs, code: int, out: str, err: str) -> str | None:
    """`decide --format json` on (a, b, c): the verdict record, or exit 2."""
    a, b, c = coeffs
    inv_i, inv_j, disc = invariants(a, b, c)
    if disc == 0:
        if code != 2 or out or "singular" not in err:
            return f"singular {coeffs}: want exit 2 and an error, got exit {code}"
        return None
    if code != 0:
        return f"{coeffs}: exit {code}: {err.strip()}"
    try:
        got = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"{coeffs}: output is not JSON: {exc}"
    order = point_order(inv_i, inv_j, disc)
    chow = {"torsion": order is not None}
    if order is not None:
        chow["point_order"] = order
    want = {
        "curve": {"a": str(a), "b": str(b), "c": str(c)},
        "I": str(inv_i),
        "J": str(inv_j),
        "disc": str(disc),
        "P": {"x": str(4 * inv_i), "y": str(4 * inv_j)},
        "chow": chow,
        "griffiths": "torsion",
    }
    if got != want:
        return f"{coeffs}: got {got}, want {want}"
    return None


def scan_row(a: Fraction, b: Fraction, c: Fraction) -> str:
    """The CSV row `scan` must write for one grid point."""
    inv_i, inv_j, disc = invariants(a, b, c)
    if disc == 0:
        verdict, order = "skipped", None
    else:
        order = point_order(inv_i, inv_j, disc)
        verdict = "non_torsion" if order is None else "torsion"
    shown = "" if order is None else str(order)
    return f"{a},{b},{c},{inv_i},{inv_j},{disc},{verdict},{shown}"


def check_scan(axes, code: int, text: str) -> str | None:
    """Every row of a `scan` CSV, in lexicographic grid order."""
    if code != 0:
        return f"scan {axes}: exit {code}"
    lines = text.split("\n")
    if lines[-1] != "":
        return "scan output does not end with a newline"
    want = [SCAN_HEADER] + [scan_row(*point) for point in product(*axes)]
    got = lines[:-1]
    if len(got) != len(want):
        return f"scan: {len(got)} lines, want {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"scan line {i}: got {g!r}, want {w!r}"
    return None


def wedge3_invariants(order: int, exps) -> int:
    """Invariant dimension of the exterior cube under a cyclic group.

    The generator acts diagonally with eigenvalues zeta^e, zeta a primitive
    order-th root of unity, so the invariants are spanned by the index
    triples i < j < k with e_i + e_j + e_k = 0 mod order.
    """
    counts = Counter(e % order for e in exps)
    residues = sorted(counts)
    total = 0
    for i, r1 in enumerate(residues):
        for r2 in residues[i:]:
            r3 = (-r1 - r2) % order
            if r3 < r2 or r3 not in counts:
                continue
            c1, c2, c3 = counts[r1], counts[r2], counts[r3]
            if r1 == r2 == r3:
                total += math.comb(c1, 3)
            elif r1 == r2:
                total += math.comb(c1, 2) * c3
            elif r2 == r3:
                total += c1 * math.comb(c2, 2)
            else:
                total += c1 * c2 * c3
    return total


def dihedral_spectrum(m: int, a: int, b: int) -> list[int]:
    """Eigencharacters n of the rotation: m divides neither n*a nor n*b."""
    return [n for n in range(1, m) if (n * a) % m and (n * b) % m]


def repcrit_record(order: int, exps) -> dict:
    """`repcrit --format json` for a cyclic group given by its generator."""
    h1 = list(exps) + [(-e) % order for e in exps]
    d_v = wedge3_invariants(order, exps)
    d3 = wedge3_invariants(order, h1)
    d1 = sum(1 for e in h1 if e % order == 0)
    return {
        "group_order": order,
        "level": order,
        "dim_v": len(exps),
        "wedge3_v_invariants": d_v,
        "wedge3_h1_invariants": d3,
        "h1_invariants": d1,
        "prim3_invariants": d3 - d1,
        "criterion_a": d3 == d1,
        "criterion_b": d_v == 0,
    }


def check_repcrit(spec, code: int, out: str) -> str | None:
    """`repcrit --profile P --format json` for a preset or dihedral:m,a,b."""
    if spec[0] == "preset":
        order, exps = PRESETS[spec[1]]
    else:
        _, m, a, b = spec
        order, exps = m, dihedral_spectrum(m, a, b)
        genus = m + 1 - math.gcd(a, m) - math.gcd(b, m)
        if len(exps) != genus:
            return f"oracle: spectrum of {spec} has {len(exps)} members, genus {genus}"
    if code != 0:
        return f"repcrit {spec}: exit {code}"
    try:
        got = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"repcrit {spec}: output is not JSON: {exc}"
    want = repcrit_record(order, exps)
    if got != want:
        return f"repcrit {spec}: got {got}, want {want}"
    return None
