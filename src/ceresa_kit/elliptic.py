"""Exact elliptic curve arithmetic over the rationals in short Weierstrass form.

Curves are y^2 = x^3 + A x + B with rational A, B and nonzero discriminant.
Points are either the point at infinity (the group identity) or exact
affine rational pairs; the chord-tangent group law is evaluated with
Fraction arithmetic, and the on-curve test on integers with the
denominators cleared, so there are no tolerances anywhere.

Beyond the group law, this module provides:

  * the torsion-order decision over Q (the multiples 2P, ..., 10P and
    12P: by Mazur no rational point has order 11 or above 12),
  * the rational torsion subgroup of a j = 0 curve y^2 = x^3 + D, read
    off its classification (no group law),
  * the 3-isogeny y^2 = x^3 + D  ->  y^2 = x^3 - 27D with kernel {x = 0}.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .exactmath import RatLike, rat, rational_nth_root, rational_sqrt
from .value import Value

MAZUR_BOUND = 12


class ECPoint(Value):
    """A rational point: affine (x, y) or the point at infinity (x = y = None)."""

    __slots__ = _fields = ("x", "y")
    x: Fraction | None
    y: Fraction | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def to_json(self):
        return "infinity" if self.is_infinity else super().to_json()

    def __str__(self) -> str:
        return "infinity" if self.is_infinity else f"({self.x}, {self.y})"


INFINITY = ECPoint(None, None)


def affine(x: RatLike, y: RatLike) -> ECPoint:
    return ECPoint(rat(x), rat(y))


def point_sort_key(p: ECPoint):
    """Deterministic ordering with infinity first, then by (x, y)."""
    return (0, Fraction(0), Fraction(0)) if p.is_infinity else (1, p.x, p.y)


class WeierstrassCurve(Value):
    """y^2 = x^3 + A x + B; construction rejects singular models."""

    __slots__ = _fields = ("A", "B")
    A: Fraction
    B: Fraction

    def __init__(self, A: RatLike, B: RatLike):
        A, B = rat(A), rat(B)
        if 4 * A**3 + 27 * B**2 == 0:
            raise DomainError("singular curve: 4A^3 + 27B^2 = 0")
        super().__init__(A, B)

    def contains(self, p: ECPoint) -> bool:
        """Whether y^2 = x^3 + Ax + B at P, compared on integers with the
        denominators of x, y, A and B cross-multiplied."""
        if p.is_infinity:
            return True
        xn, xd = p.x.numerator, p.x.denominator
        yn, yd = p.y.numerator, p.y.denominator
        an, ad = self.A.numerator, self.A.denominator
        bn, bd = self.B.numerator, self.B.denominator
        xd2 = xd * xd
        rhs = (xn * xn * ad + an * xd2) * xn * bd + bn * ad * xd2 * xd
        return yn * yn * xd2 * xd * ad * bd == yd * yd * rhs

    def __str__(self) -> str:
        return f"y^2 = x^3 + ({self.A})*x + ({self.B})"


def _require_on_curve(e: WeierstrassCurve, p: ECPoint) -> None:
    if not e.contains(p):
        raise DomainError(f"point {p} is not on {e}")


def negate(p: ECPoint) -> ECPoint:
    return p if p.is_infinity else ECPoint(p.x, -p.y)


def add(e: WeierstrassCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-tangent addition with infinity as the identity; checks P and Q."""
    _require_on_curve(e, p)
    _require_on_curve(e, q)
    return _add(e, p, q)


def _add(e: WeierstrassCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """The group law for points already known to be on the curve."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        lam = (3 * p.x * p.x + e.A) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return ECPoint(x3, y3)


def scalar_mul(e: WeierstrassCurve, n: int, p: ECPoint) -> ECPoint:
    """n*P by double-and-add; negative n via (x, y) -> (x, -y)."""
    _require_on_curve(e, p)
    if n < 0:
        n, p = -n, negate(p)
    result = INFINITY
    addend = p
    while n:
        if n & 1:
            result = _add(e, result, addend)
        if n > 1:
            addend = _add(e, addend, addend)
        n >>= 1
    return result


def torsion_order_q(e: WeierstrassCurve, p: ECPoint) -> int | None:
    """Exact order of P in E(Q) if torsion, else None (infinite order).

    By Mazur's theorem a rational torsion point has order 1 to 10 or 12, so
    2P, ..., 10P and 12P = 10P + 2P decide: 10 additions, of which only the
    first, 2P, checks that P is on the curve (the multiples then are).
    """
    if p.is_infinity:
        return 1
    acc = two = add(e, p, p)
    for n in range(2, 10):
        if acc.is_infinity:
            return n
        acc = _add(e, acc, p)
    if acc.is_infinity:
        return 10
    return MAZUR_BOUND if _add(e, acc, two).is_infinity else None


def rational_torsion_j0(d: RatLike) -> list[ECPoint]:
    """Full rational torsion subgroup of y^2 = x^3 + D, sorted, infinity first.

    Read off the classification of the torsion of y^2 = x^3 + D over Q
    (Knapp, *Elliptic Curves*; Silverman, *The Arithmetic of Elliptic
    Curves*, ch. X, exercises): Z/6 when D = u^6, Z/3 when D is another
    square or D = -432 w^6, Z/2 when D is another cube, trivial otherwise.
    The points are (r, 0) for r = cbrt(-D); (0, +-s) for D = s^2; (cbrt(-4D),
    +-sqrt(-3D)), the other roots of the 3-division polynomial 3x(x^3 + 4D);
    and, when r and s both exist, the order-6 points (-2r, +-3s).
    """
    d = rat(d)
    if d == 0:
        raise DomainError("y^2 = x^3 is singular")
    points = [INFINITY]
    r = rational_nth_root(-d, 3)
    if r is not None:
        points.append(ECPoint(r, Fraction(0)))
    s = rational_sqrt(d) if d > 0 else None
    if s is not None:
        points += [ECPoint(Fraction(0), s), ECPoint(Fraction(0), -s)]
        if r is not None:
            points += [ECPoint(-2 * r, 3 * s), ECPoint(-2 * r, -3 * s)]
    x1 = rational_nth_root(-4 * d, 3)
    t = rational_sqrt(-3 * d) if d < 0 else None
    if x1 is not None and t is not None:
        points += [ECPoint(x1, t), ECPoint(x1, -t)]
    return sorted(points, key=point_sort_key)


class Isogeny3(Value):
    """Degree-3 isogeny y^2 = x^3 + D -> y^2 = x^3 - 27D, kernel {x = 0}.

    phi(x, y) = ((x^3 + 4D)/x^2, y(x^3 - 8D)/x^3); infinity and the kernel
    map to infinity.
    """

    __slots__ = _fields = ("D", "source", "target")
    D: Fraction
    source: WeierstrassCurve
    target: WeierstrassCurve

    def apply(self, p: ECPoint) -> ECPoint:
        _require_on_curve(self.source, p)
        if p.is_infinity or p.x == 0:
            return INFINITY
        x, y, d = p.x, p.y, self.D
        image = ECPoint((x**3 + 4 * d) / x**2, y * (x**3 - 8 * d) / x**3)
        assert self.target.contains(image)
        return image


def velu_3isogeny(d: RatLike) -> Isogeny3:
    """The 3-isogeny with kernel {x = 0} out of y^2 = x^3 + D."""
    d = rat(d)
    if d == 0:
        raise DomainError("y^2 = x^3 is singular")
    return Isogeny3(d, WeierstrassCurve(0, d), WeierstrassCurve(0, -27 * d))
