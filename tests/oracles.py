"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check: torsion
enumeration goes through the generic division-polynomial recurrence and a
rational-root search, invariant dimensions of exterior cubes are
counted by brute-force triple enumeration, and the group averages of the
character kernel are recomputed in cyclotomic-field arithmetic (``CycNum``)
instead of packed integers.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from ceresa_kit.elliptic import (
    ECPoint,
    INFINITY,
    WeierstrassCurve,
    add,
    point_sort_key,
    torsion_order_q,
)
from ceresa_kit.errors import NotRationalError, ProfileError
from ceresa_kit.exactmath import (
    CycNum,
    UPoly,
    cyc_to_rational,
    rat,
    rational_sqrt,
)
from ceresa_kit.repcrit import ActionProfile, ConjClass

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
    points = {p for p in points if torsion_order_q(curve, p) is not None}
    while True:
        extra = {add(curve, p, q) for p in points for q in points} - points
        if not extra:
            break
        points |= extra
    return sorted(points, key=point_sort_key)


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
