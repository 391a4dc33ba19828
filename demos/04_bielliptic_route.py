"""The bielliptic cross-check for even quartics y^3 = x^4 + ax^2 + c.

When b = 0 the curve is bielliptic and carries an auxiliary point
Q = (a^2 - 4c, a(a^2 - 4c)) on the j = 0 curve y^2 = x^3 + 4c(a^2 - 4c)^2.
Pushing Q through the 3-isogeny with kernel {x = 0} and rescaling by
(4x, 8y) must reproduce the invariant point up to sign.  This demo walks
the chain step by step.  Run with:  python demos/04_bielliptic_route.py
"""

from fractions import Fraction

from ceresa_kit import (
    PicardCurve,
    bielliptic_consistency,
    picard_invariant_point,
    velu_3isogeny,
)
from ceresa_kit.elliptic import affine


def walk(a, c):
    a, c = Fraction(a), Fraction(c)
    u = a * a - 4 * c
    q = affine(u, a * u)
    d_prime = 4 * c * u * u
    iso = velu_3isogeny(d_prime)
    image = iso.apply(q)
    scaled = affine(4 * image.x, 8 * image.y)
    short_curve, point = picard_invariant_point(PicardCurve.from_coefficients(a, 0, c))
    print(f"(a, c) = ({a}, {c}):")
    print(f"  Q = {q} on {iso.source}")
    print(f"  3-isogeny image: {image} on {iso.target}")
    print(f"  rescaled by (4x, 8y): {scaled} on {short_curve}")
    print(f"  invariant point: {point}")
    print(f"  match up to sign: {bielliptic_consistency(a, c)}")
    print()


walk(1, 1)
walk(-12, -12)
walk(0, 5)  # a = 0 forces a two-torsion image
walk(Fraction(3, 2), Fraction(-7, 4))
