"""Torsion decisions for Ceresa classes of Picard curves y^3 = x^4 + ax^2 + bx + c.

The decision runs through the invariant point: the invariants (I, J) of the
quartic satisfy J^2 = 4I^3 - 27*disc, so P = (I, J) is a rational point on
y^2 = 4x^3 - 27*disc.  The Ceresa class of the curve is torsion in the Chow
group exactly when P is a torsion point, and the verdict reports the exact
order of P over Q.  Modulo algebraic equivalence (the Griffiths group) the
class is torsion for every Picard curve, so that verdict is a constant.

The same point also organizes the explicit torsion families: for (I, J) on
the discriminant-1 fiber E0: y^2 = 4x^3 - 27 and a rational parameter t,
g(t) = t^3 - It/3 - J/27 is automatically nonzero, and ``family_generate``
produces a quartic whose invariant point is the sextic twist (g^2 I, g^3 J)
of (I, J) by the square g, hence of the same order over Q.  Every rational
point of E0 of finite order therefore yields a one-parameter family of
curves with the same torsion verdict.

A ``PicardCurve`` reads the invariants its quartic keeps, refusing disc = 0;
a scan records such a point as skipped and decides every other one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import product

from . import elliptic
from .elliptic import ECPoint, WeierstrassCurve
from .errors import DomainError
from .exactmath import RatLike, rat
from .quartic import DepressedQuartic, QuarticInvariants, from_invariant_point
from .value import Value


class PicardCurve(Value):
    """A quartic with nonzero discriminant, i.e. a smooth curve y^3 = f(x).

    ``invariants`` are the quartic's own, computed when it was built.
    """

    __slots__ = _fields = ("quartic",)
    quartic: DepressedQuartic

    def __init__(self, quartic: DepressedQuartic):
        if quartic.invariants.disc == 0:
            raise DomainError(f"singular quartic (disc = 0): {quartic}")
        super().__init__(quartic)

    @property
    def invariants(self) -> QuarticInvariants:
        return self.quartic.invariants

    @classmethod
    def from_coefficients(cls, a: RatLike, b: RatLike, c: RatLike) -> PicardCurve:
        return cls(DepressedQuartic(a, b, c))


class ChowVerdict(Value):
    """The exact order of the invariant point over Q; None when it is non-torsion."""

    __slots__ = _fields = ("point_order",)
    point_order: int | None

    @property
    def torsion(self) -> bool:
        return self.point_order is not None

    def to_json(self) -> dict:
        if self.point_order is None:
            return {"torsion": False}
        return {"torsion": True, "point_order": self.point_order}


GRIFFITHS_TORSION = "torsion"


class CeresaVerdict(Value):
    """Decision record for one Picard curve.

    ``chow.point_order`` is the order of the invariant point, which matches
    the torsion order of the Ceresa class only up to a bounded multiple; the
    verdict deliberately reports the point order, not the class order.
    ``griffiths`` is a class constant: every Picard curve is torsion there.
    """

    __slots__ = _fields = ("curve", "point", "chow")
    curve: PicardCurve
    point: ECPoint  # invariant point on the short model y^2 = x^3 - 432*disc
    chow: ChowVerdict
    griffiths = GRIFFITHS_TORSION

    def to_json(self) -> dict:
        return {
            "curve": self.curve.quartic.to_json(),
            **self.curve.invariants.to_json(),
            "P": self.point.to_json(),
            "chow": self.chow.to_json(),
            "griffiths": self.griffiths,
        }


def picard_invariant_point(curve: PicardCurve) -> tuple[WeierstrassCurve, ECPoint]:
    """The short model y^2 = x^3 - 432*disc and the invariant point (4I, 4J) on it.

    The map (x, y) -> (4x, 4y) sends (I, J) on y^2 = 4x^3 - 27*disc onto it.
    """
    inv = curve.invariants
    return WeierstrassCurve(0, -432 * inv.disc), ECPoint(4 * inv.I, 4 * inv.J)


def decide(curve: PicardCurve) -> CeresaVerdict:
    """Chow verdict from the order of the invariant point over Q."""
    short_curve, point = picard_invariant_point(curve)
    return CeresaVerdict(curve, point, ChowVerdict(elliptic.torsion_order_q(short_curve, point)))


def bielliptic_consistency(a: RatLike, c: RatLike) -> bool:
    """Check the bielliptic route against the invariant point for b = 0.

    The curve y^3 = x^4 + ax^2 + c carries the auxiliary point
    Q = (a^2 - 4c, a(a^2 - 4c)) on y^2 = x^3 + D' with D' = 4c(a^2 - 4c)^2,
    the unique j = 0 curve through Q.  Pushing Q through the 3-isogeny onto
    y^2 = x^3 - 27D' and rescaling by (4x, 8y) lands on the short model
    y^2 = x^3 - 432*disc, where the image must agree with the invariant
    point up to sign (the isogeny's sign is not pinned down).
    """
    a, c = rat(a), rat(c)
    u = a * a - 4 * c
    if u == 0:
        raise DomainError("a^2 - 4c = 0: the auxiliary point degenerates")
    curve = PicardCurve.from_coefficients(a, 0, c)  # rejects disc = 0
    _, point = picard_invariant_point(curve)

    q = elliptic.affine(u, a * u)
    d_prime = 4 * c * u * u
    iso = elliptic.velu_3isogeny(d_prime)
    image = iso.apply(q)
    scaled = elliptic.affine(4 * image.x, 8 * image.y)
    return scaled in (point, elliptic.negate(point))


def family_generate(inv_i: RatLike, inv_j: RatLike, t: RatLike) -> PicardCurve:
    """Member at parameter t of the torsion family attached to (I, J) on E0.

    Requires J^2 = 4I^3 - 27 (the disc = 1 normalization), so (I, J) is
    (3, +-9) and g(t) = t^3 - It/3 - J/27 has no rational root.  The member
    is the quartic with invariants (g^2 I, g^3 J) through the point (t*g, g^2)
    of y^2 = x^3 - g^2 I x/3 - g^3 J/27, namely

        x^4 - (3*t*g/2) x^2 + g^2 x + (g^2 I/12 - 3*t^2 g^2/16),

    with discriminant g^6: the weighted rescaling of the fiber quartic by
    g(t)^(1/2) forces the g^2 factor on the I/12 term.  The discriminant g^6
    is nonzero since g(t) is, so the member is always a valid curve.
    """
    inv_i, inv_j, t = rat(inv_i), rat(inv_j), rat(t)
    if inv_j**2 != 4 * inv_i**3 - 27:
        raise DomainError("(I, J) is not on y^2 = 4x^3 - 27")
    g = t**3 - inv_i * t / 3 - inv_j / 27
    return PicardCurve(from_invariant_point(g * g * inv_i, g**3 * inv_j, t * g, g * g))


def e0_rational_torsion() -> list[ECPoint]:
    """Rational torsion of y^2 = 4x^3 - 27, in that model's coordinates.

    The torsion is enumerated on the short model y^2 = x^3 - 432, the image
    of E0 under (x, y) -> (4x, 4y), and scaled back by 1/4.
    """
    pts = elliptic.rational_torsion_j0(-432)
    return [p if p.is_infinity else ECPoint(p.x / 4, p.y / 4) for p in pts]


VERDICT_TORSION = "torsion"
VERDICT_NON_TORSION = "non_torsion"
VERDICT_SKIPPED = "skipped"


class ScanRecord(Value):
    __slots__ = _fields = ("a", "b", "c", "I", "J", "disc", "verdict", "point_order")
    a: Fraction
    b: Fraction
    c: Fraction
    I: Fraction
    J: Fraction
    disc: Fraction
    verdict: str
    point_order: int | None

    def csv_row(self) -> str:
        return ",".join("" if value is None else str(value) for value in self._astuple(self))


SCAN_CSV_HEADER = ",".join(ScanRecord._fields)


def _scan_one(a: Fraction, b: Fraction, c: Fraction) -> ScanRecord:
    quartic = DepressedQuartic(a, b, c)
    inv = quartic.invariants
    if inv.disc == 0:
        return ScanRecord(a, b, c, inv.I, inv.J, inv.disc, VERDICT_SKIPPED, None)
    chow = decide(PicardCurve(quartic)).chow
    label = VERDICT_TORSION if chow.torsion else VERDICT_NON_TORSION
    return ScanRecord(a, b, c, inv.I, inv.J, inv.disc, label, chow.point_order)


def scan(
    a_values: Sequence[RatLike],
    b_values: Sequence[RatLike],
    c_values: Sequence[RatLike],
) -> Iterator[ScanRecord]:
    """Decide every grid point, in lexicographic (a, b, c) grid order.

    The grid is read and checked on the call; each point is decided only
    when its record is read from the returned iterator.  Points with
    vanishing discriminant are recorded as skipped.
    """
    grid_a = [rat(v) for v in a_values]
    grid_b = [rat(v) for v in b_values]
    grid_c = [rat(v) for v in c_values]
    if not (grid_a and grid_b and grid_c):
        raise DomainError("empty scan grid")
    return (_scan_one(a, b, c) for a, b, c in product(grid_a, grid_b, grid_c))


def scan_csv_lines(records: Iterable[ScanRecord]) -> Iterator[str]:
    yield SCAN_CSV_HEADER
    yield from map(ScanRecord.csv_row, records)
