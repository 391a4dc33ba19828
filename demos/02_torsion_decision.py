"""Deciding Ceresa torsion for Picard curves y^3 = x^4 + ax^2 + bx + c.

The invariant point P = (I, J) sits on y^2 = 4x^3 - 27*disc; the Ceresa
class is torsion in the Chow group exactly when P has finite order, and the
order is decided exactly over Q (exhaustive multiplication up to the Mazur
bound).  Run with:  python demos/02_torsion_decision.py
"""

from ceresa_kit import PicardCurve, decide, picard_invariant_point
from ceresa_kit.elliptic import affine

CURVES = [
    ("x^4 + x^2 + 1 (infinite-order invariant point)", (1, 0, 1)),
    ("x^4 - 12x^2 + x - 12 (member of a torsion family)", (-12, 1, -12)),
    ("x^4 - 1 (two-torsion invariant point)", (0, 0, -1)),
    ("x^4 + x (the order-9 symmetric curve)", (0, 1, 0)),
]

for label, coeffs in CURVES:
    curve = PicardCurve.from_coefficients(*coeffs)
    inv = curve.invariants
    short_curve, point = picard_invariant_point(curve)
    verdict = decide(curve)
    print(label)
    print(f"  invariants: I = {inv.I}, J = {inv.J}, disc = {inv.disc}")
    print(f"  P = {affine(inv.I, inv.J)} on y^2 = 4x^3 + ({-27 * inv.disc})")
    print(f"  short model: {point} on {short_curve}")
    if verdict.chow.torsion:
        print(f"  chow verdict: torsion, point order {verdict.chow.point_order}")
    else:
        print("  chow verdict: non-torsion")
    print(f"  griffiths verdict: {verdict.griffiths} (constant for Picard curves)")
    print()
