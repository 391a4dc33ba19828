"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check: torsion
enumeration goes through the generic division-polynomial recurrence and a
rational-root search, invariant dimensions of exterior cubes are
counted by brute-force triple enumeration, the group averages of the
character kernel are recomputed in cyclotomic-field arithmetic (``CycNum``)
instead of packed integers, and the quartic discriminant is recomputed as a
resultant (``poly_discriminant``) instead of by its closed form.  The
invariants and the on-curve test, which the package evaluates on integers
with denominators cleared, are restated here in plain Fraction arithmetic,
and the j = 0 torsion subgroup, which the package reads off its
classification, is found here by closing its 2- and 3-torsion under the
group law.  The torsion order, which the package decides from 2P, ..., 10P
and 12P with one on-curve check, is found here by the plain walk
2P, ..., 12P through the checked ``add``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from ceresa_kit.elliptic import (
    ECPoint,
    INFINITY,
    WeierstrassCurve,
    add,
    point_sort_key,
)
from ceresa_kit.errors import DomainError, ProfileError
from ceresa_kit.exactmath import (
    RatLike,
    UPoly,
    cyclotomic_polynomial,
    rat,
    rational_nth_root,
    rational_sqrt,
)
from ceresa_kit.repcrit import ActionProfile, ConjClass
from ceresa_kit.value import Value

# psi_n is represented as (g, parity) with psi_n = g(x) * y^parity and
# y^2 reduced to x^3 + Ax + B.


def division_polynomials(A, B, n_max: int):
    A, B = rat(A), rat(B)
    f = UPoly([B, A, 0, 1])

    def mul(p, q):
        g = p[0] * q[0]
        e = p[1] + q[1]
        if e >= 2:
            g = g * f ** (e // 2)
            e %= 2
        return (g, e)

    def sub(p, q):
        assert p[1] == q[1]
        return (p[0] - q[0], p[1])

    psi = {
        0: (UPoly.zero(), 0),
        1: (UPoly.one(), 0),
        2: (UPoly.const(2), 1),
        3: (UPoly([-A * A, 12 * B, 6 * A, 0, 3]), 0),
        4: (
            UPoly(
                [
                    4 * (-(A**3) - 8 * B * B),
                    4 * (-4 * A * B),
                    4 * (-5 * A * A),
                    4 * (20 * B),
                    4 * (5 * A),
                    0,
                    4,
                ]
            ),
            1,
        ),
    }
    for n in range(5, n_max + 1):
        m = n // 2
        if n % 2 == 1:
            cubed_m = mul(psi[m], mul(psi[m], psi[m]))
            cubed_m1 = mul(psi[m + 1], mul(psi[m + 1], psi[m + 1]))
            psi[n] = sub(mul(psi[m + 2], cubed_m), mul(psi[m - 1], cubed_m1))
        else:
            bracket = sub(
                mul(psi[m + 2], mul(psi[m - 1], psi[m - 1])),
                mul(psi[m - 2], mul(psi[m + 1], psi[m + 1])),
            )
            prod = mul(psi[m], bracket)
            assert prod[1] == 0
            g, r = divmod(prod[0], f * 2)
            assert r.is_zero()
            psi[n] = (g, 1)
    return psi


def _factorization(n: int) -> dict[int, int]:
    assert n > 0
    factors: dict[int, int] = {}
    for p in range(2, 1_000_000):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(n: int) -> int:
    """Euler's totient, from the prime factorization."""
    phi = n
    for p in _factorization(n):
        phi = phi // p * (p - 1)
    return phi


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, k in _factorization(n).items():
        divs = [d * p**i for d in divs for i in range(k + 1)]
    return divs


def is_prime(n: int) -> bool:
    return n > 1 and _factorization(n) == {n: 1}


def geometric_series_by_division(n: int) -> UPoly:
    """(x^n - 1) / (x - 1) by rational polynomial division, checked exact."""
    quot, rem = divmod(UPoly.x_pow(n) - UPoly.one(), UPoly([-1, 1]))
    assert rem.is_zero()
    return quot


def product_of_divisor_polys(level: int, poly) -> list[int]:
    """The integer coefficients of the product of poly(d) over the divisors d
    of the level, by schoolbook convolution."""
    product = [1]
    for d in sorted(_divisors(level)):
        factor = [int(c) for c in poly(d).coeffs]
        out = [0] * (len(product) + len(factor) - 1)
        for i, c in enumerate(product):
            for j, e in enumerate(factor):
                out[i + j] += c * e
        product = out
    return product


def epsilon_spectrum_by_definition(m: int, a: int, b: int) -> list[int]:
    """The n in 1, ..., m - 1 with m dividing neither n*a nor n*b."""
    return [n for n in range(1, m) if n * a % m and n * b % m]


def rational_roots(p: UPoly) -> set[Fraction]:
    """All rational roots, by the rational root theorem on the scaled poly."""
    assert not p.is_zero()
    roots: set[Fraction] = set()
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        roots.add(Fraction(0))
    if len(coeffs) <= 1:
        return roots
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    for num in _divisors(abs(ints[0])):
        for den in _divisors(abs(ints[-1])):
            if math.gcd(num, den) != 1:
                continue
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p.evaluate(cand) == 0:
                    roots.add(cand)
    return roots


def resultant(p: UPoly, q: UPoly) -> Fraction:
    """Resultant of two polynomials by the Euclidean remainder sequence.

    Uses Res(A, B) = lc(A)^(deg B - deg R) * Res(A, R) for R = B mod A and
    the swap rule Res(A, B) = (-1)^(deg A * deg B) * Res(B, A).
    """
    if p.is_zero() or q.is_zero():
        return Fraction(0)
    dp, dq = p.degree(), q.degree()
    if dq == 0:
        return q.lc() ** dp
    if dp == 0:
        return p.lc() ** dq
    if dp < dq:
        sign = -1 if (dp * dq) % 2 else 1
        return sign * resultant(q, p)
    r = p % q
    if r.is_zero():
        return Fraction(0)
    sign = -1 if (dp * dq) % 2 else 1
    return sign * q.lc() ** (dp - r.degree()) * resultant(q, r)


def poly_discriminant(p: UPoly) -> Fraction:
    """Discriminant via disc(p) = (-1)^(d(d-1)/2) * Res(p, p') / lc(p)."""
    d = p.degree()
    if d < 1:
        raise DomainError("discriminant requires degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.lc()


def invariants_fraction(q) -> tuple[Fraction, Fraction, Fraction]:
    """(I, J, disc) of a depressed quartic, in Fraction arithmetic term by term.

    The closed forms as ``quartic.invariants`` evaluated them before it
    moved to integers: no scaling, one Fraction operation at a time.
    """
    a, b, c = q.a, q.b, q.c
    inv_i = a * a + 12 * c
    inv_j = 72 * a * c - 2 * a**3 - 27 * b * b
    disc = (
        -4 * a**3 * b**2
        - 27 * b**4
        + 16 * a**4 * c
        + 144 * a * b**2 * c
        - 128 * a**2 * c**2
        + 256 * c**3
    )
    assert inv_j * inv_j == 4 * inv_i**3 - 27 * disc, q
    return inv_i, inv_j, disc


def on_curve_fraction(e: WeierstrassCurve, p: ECPoint) -> bool:
    """Whether P lies on y^2 = x^3 + Ax + B, compared as Fractions."""
    return p.is_infinity or p.y * p.y == p.x**3 + e.A * p.x + e.B


def torsion_order_by_walk(e: WeierstrassCurve, p: ECPoint) -> int | None:
    """Order of P if at most 12 (Mazur's bound), else None, by adding P to
    itself: 2P, ..., 12P, each through the checked ``add``."""
    if p.is_infinity:
        return 1
    acc = p
    for n in range(2, 13):
        acc = add(e, acc, p)
        if acc.is_infinity:
            return n
    return None


def torsion_points_bruteforce(A, B) -> list[ECPoint]:
    """Full rational torsion subgroup of y^2 = x^3 + Ax + B.

    Rational points of prime-power order up to the Mazur bound are located
    as rational roots of the division polynomials (orders 2, 3, 4, 5, 7, 8,
    9); the subgroup they generate under addition is the whole torsion
    group, since a finite abelian group is generated by its elements of
    prime-power order.
    """
    A, B = rat(A), rat(B)
    curve = WeierstrassCurve(A, B)
    f = UPoly([B, A, 0, 1])
    psi = division_polynomials(A, B, 9)
    xs = rational_roots(f)
    for n in (3, 4, 5, 7, 8, 9):
        xs |= rational_roots(psi[n][0])
    points = {INFINITY}
    for x0 in xs:
        y2 = f.evaluate(x0)
        if y2 == 0:
            points.add(ECPoint(x0, Fraction(0)))
            continue
        s = rational_sqrt(y2) if y2 > 0 else None
        if s is not None:
            points.add(ECPoint(x0, s))
            points.add(ECPoint(x0, -s))
    points = {p for p in points if torsion_order_by_walk(curve, p) is not None}
    while True:
        extra = {add(curve, p, q) for p in points for q in points} - points
        if not extra:
            break
        points |= extra
    return sorted(points, key=point_sort_key)


def rational_torsion_j0_closure(d: RatLike) -> list[ECPoint]:
    """Full rational torsion subgroup of y^2 = x^3 + D, by closure under addition.

    2-torsion comes from the rational root of x^3 + D (at most one); the
    3-division polynomial 3x^4 + 12Dx = 3x(x^3 + 4D) contributes x = 0 when
    D is a square and x = cbrt(-4D) when -3D is a square.  The group is
    then closed under addition.
    """
    d = rat(d)
    if d == 0:
        raise DomainError("y^2 = x^3 is singular")
    curve = WeierstrassCurve(0, d)
    found: set[ECPoint] = {INFINITY}
    r = rational_nth_root(-d, 3)
    if r is not None:
        found.add(ECPoint(r, Fraction(0)))
    s = rational_sqrt(d) if d > 0 else None
    if s is not None:
        found.add(ECPoint(Fraction(0), s))
        found.add(ECPoint(Fraction(0), -s))
    x1 = rational_nth_root(-4 * d, 3)
    if x1 is not None:
        t = rational_sqrt(-3 * d) if -3 * d > 0 else None
        if t is not None:
            found.add(ECPoint(x1, t))
            found.add(ECPoint(x1, -t))
    while True:
        extra = {add(curve, p, q) for p in found for q in found} - found
        if not extra:
            break
        found |= extra
    return sorted(found, key=point_sort_key)


def wedge3_invariants_bruteforce(exps, level: int) -> int:
    """Count index triples i < j < k with e_i + e_j + e_k = 0 mod level.

    For a cyclic group whose order equals the eigenvalue level, this is the
    invariant dimension of the exterior cube.
    """
    exps = [e % level for e in exps]
    n = len(exps)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (exps[i] + exps[j] + exps[k]) % level == 0:
                    count += 1
    return count


def invariants_bruteforce(exps, level: int) -> int:
    """Count exponents divisible by the level (cyclic invariant dimension)."""
    return sum(1 for e in exps if e % level == 0)


class NotRationalError(DomainError):
    """A cyclotomic number was asked to convert to a rational but is not one."""


# The library builds Phi_L afresh on each call; the oracle reduces by it on
# every CycNum operation, over the few small levels the tests use.
_cyclotomic = lru_cache(maxsize=None)(cyclotomic_polynomial)


class CycNum(Value):
    """An element of the cyclotomic field of the given level.

    ``rep`` is the unique representative of degree < phi(level) modulo the
    level's cyclotomic polynomial; the constructor reduces whatever it is
    given.  Supports +, -, *, ** and scalar mixing with rationals.  Equality
    also holds against rationals, so instances are unhashable.
    """

    __slots__ = _fields = ("level", "rep")
    level: int
    rep: UPoly

    def __init__(self, level: int, rep: UPoly):
        if level < 1:
            raise DomainError("cyclotomic level must be positive")
        super().__init__(level, rep % _cyclotomic(level))

    @classmethod
    def from_rational(cls, value: RatLike, level: int = 1) -> CycNum:
        return cls(level, UPoly.const(rat(value)))

    def _lift(self, level: int) -> CycNum:
        if level == self.level:
            return self
        assert level % self.level == 0
        return CycNum(level, self.rep.compose_xpow(level // self.level))

    def _pair(self, other: CycNum | RatLike) -> tuple[CycNum, CycNum]:
        if not isinstance(other, CycNum):
            other = CycNum.from_rational(rat(other), self.level)
        m = math.lcm(self.level, other.level)
        return self._lift(m), other._lift(m)

    def __add__(self, other: CycNum | RatLike) -> CycNum:
        a, b = self._pair(other)
        return CycNum(a.level, a.rep + b.rep)

    __radd__ = __add__

    def __sub__(self, other: CycNum | RatLike) -> CycNum:
        a, b = self._pair(other)
        return CycNum(a.level, a.rep - b.rep)

    def __rsub__(self, other: CycNum | RatLike) -> CycNum:
        a, b = self._pair(other)
        return CycNum(a.level, b.rep - a.rep)

    def __neg__(self) -> CycNum:
        return CycNum(self.level, -self.rep)

    def __mul__(self, other: CycNum | RatLike) -> CycNum:
        a, b = self._pair(other)
        return CycNum(a.level, a.rep * b.rep)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> CycNum:
        if n < 0:
            raise ValueError("negative power not supported")
        result = CycNum.from_rational(1, self.level)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Fraction, int)):
            other = CycNum.from_rational(other, self.level)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._pair(other)
        return a.rep == b.rep

    def is_rational(self) -> bool:
        return self.rep.degree() <= 0

    def __str__(self) -> str:
        return f"CycNum(level={self.level}, {self.rep})"

    __repr__ = __str__


def cyc_to_rational(z: CycNum) -> Fraction:
    """Extract the rational value of a degree-0 cyclotomic number.

    Correct because powers of the root of unity below phi(level) form a
    basis, so a reduced representative of positive degree is irrational.
    """
    if not z.is_rational():
        raise NotRationalError(f"not rational: {z}")
    return z.rep.coeff(0)


def root_of_unity(level: int, exponent: int) -> CycNum:
    """The primitive level-th root of unity raised to the given exponent."""
    return CycNum(level, UPoly.x_pow(exponent % level))


def char_power(cls: ConjClass, k: int, level: int) -> CycNum:
    """Character value on the k-th power of a class representative.

    Equals the sum of the k-th powers of the representative's eigenvalues.
    """
    counts = [0] * level
    for e in cls.exps:
        counts[(k * e) % level] += 1
    return CycNum(level, UPoly(counts))


def _space_class(cls: ConjClass, space: str) -> ConjClass:
    # H^1 carries each eigenvalue together with its conjugate.
    assert space in ("V", "H1")
    return cls if space == "V" else ConjClass(cls.size, cls.exps + tuple(-e for e in cls.exps))


def _group_average(total: CycNum, scale: int) -> int:
    try:
        dim = cyc_to_rational(total * Fraction(1, scale))
    except NotRationalError as exc:
        raise ProfileError("invariant average is irrational") from exc
    if dim.denominator != 1 or dim < 0:
        raise ProfileError(f"invariant average {dim} is not a nonnegative integer")
    return int(dim)


def invariant_dim_cyclotomic(profile: ActionProfile, space: str) -> int:
    """Group average of the character of V or H^1, in cyclotomic arithmetic."""
    level = profile.level
    total = CycNum.from_rational(0, level)
    for cls in profile.classes:
        total = total + char_power(_space_class(cls, space), 1, level) * cls.size
    return _group_average(total, profile.group_order)


def wedge3_dim_cyclotomic(profile: ActionProfile, space: str) -> int:
    """Group average of the exterior-cube character, in cyclotomic arithmetic.

    Newton's formula chi_w3(h) = (chi(h)^3 - 3 chi(h) chi(h^2) + 2 chi(h^3)) / 6
    is evaluated class by class as elements of the cyclotomic field.
    """
    level = profile.level
    total = CycNum.from_rational(0, level)
    for cls in profile.classes:
        c1, c2, c3 = (char_power(_space_class(cls, space), k, level) for k in (1, 2, 3))
        total = total + (c1 * (c1 * c1 - c2 * 3) + c3 * 2) * cls.size
    return _group_average(total, 6 * profile.group_order)


def random_rational(rng: random.Random, num: int = 20, den: int = 8) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))
