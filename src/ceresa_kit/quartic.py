"""Invariant theory of depressed quartics f = x^4 + a x^2 + b x + c.

The two classical invariants and the discriminant of the associated binary
quartic form are

    I    = a^2 + 12c
    J    = 72ac - 2a^3 - 27b^2
    disc = -4a^3 b^2 - 27b^4 + 16a^4 c + 144a b^2 c - 128a^2 c^2 + 256c^3

linked by the syzygy J^2 = 4I^3 - 27*disc.  The weighted scaling action
lam . (a, b, c) = (lam^2 a, lam^3 b, lam^4 c), of ``WEIGHTS`` (2, 3, 4),
makes I, J, disc homogeneous of degree 4, 6, 12.  So ``invariants``
evaluates them, and checks the syzygy, on integers (the triple scaled by
the lcm of its denominators, one division per value at the end), once per
``DepressedQuartic``, which keeps them.  Orbits of nonzero triples are
points of P(2,3,4); orbit equality, over an algebraic closure or over the
rationals, is decided by one rule over the weights.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import DomainError
from .exactmath import RatLike, rat, rational_nth_root
from .value import Value


#: Weights of the scaling action on (a, b, c): lam . x = lam^w x.
WEIGHTS = (2, 3, 4)


class DepressedQuartic(Value):
    """Coefficient triple (a, b, c) of x^4 + a x^2 + b x + c.

    ``invariants`` is computed on construction and takes no part in equality,
    hashing or repr.  A vanishing discriminant is allowed; curves reject it.
    """

    __slots__ = ("a", "b", "c", "invariants")
    _fields = ("a", "b", "c")
    a: Fraction
    b: Fraction
    c: Fraction
    invariants: QuarticInvariants

    def __init__(self, a: RatLike, b: RatLike, c: RatLike):
        super().__init__(rat(a), rat(b), rat(c))
        object.__setattr__(self, "invariants", invariants(self))

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)

    def is_zero_triple(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

    def __str__(self) -> str:
        return f"x^4 + ({self.a})*x^2 + ({self.b})*x + ({self.c})"


class QuarticInvariants(Value):
    __slots__ = _fields = ("I", "J", "disc")
    I: Fraction
    J: Fraction
    disc: Fraction


def invariants(q: DepressedQuartic) -> QuarticInvariants:
    """Evaluate (I, J, disc) and assert the syzygy before returning.

    The weighted scaling by lam, the lcm of the three denominators, sends
    the triple to integers (lam^2 a, lam^3 b, lam^4 c).  I, J and disc are
    evaluated and checked there, and divided by lam^4, lam^6 and lam^12 once
    each at the end.
    """
    a, b, c = q.a, q.b, q.c
    lam = math.lcm(a.denominator, b.denominator, c.denominator)
    lam2 = lam * lam
    a = a.numerator * (lam2 // a.denominator)
    b = b.numerator * (lam2 * lam // b.denominator)
    c = c.numerator * (lam2 * lam2 // c.denominator)
    a2, b2 = a * a, b * b
    inv_i = a2 + 12 * c
    inv_j = 72 * a * c - 2 * a2 * a - 27 * b2
    disc = (
        -4 * a2 * a * b2
        - 27 * b2 * b2
        + 16 * a2 * a2 * c
        + 144 * a * b2 * c
        - 128 * a2 * c * c
        + 256 * c * c * c
    )
    # A violation here is an implementation fault, never an input error.
    assert inv_j * inv_j == 4 * inv_i**3 - 27 * disc, q
    lam4 = lam2 * lam2
    lam6 = lam4 * lam2
    return QuarticInvariants(
        Fraction(inv_i, lam4), Fraction(inv_j, lam6), Fraction(disc, lam6 * lam6)
    )


def gm_scale(lam: RatLike, q: DepressedQuartic) -> DepressedQuartic:
    """Apply the weighted scaling (a, b, c) -> (lam^2 a, lam^3 b, lam^4 c)."""
    lam = rat(lam)
    if lam == 0:
        raise DomainError("scaling parameter must be nonzero")
    return DepressedQuartic(*(lam**w * x for w, x in zip(WEIGHTS, q.coefficients())))


def _nonzero_coordinates(q1: DepressedQuartic, q2: DepressedQuartic) -> list | None:
    """(weight, x1, x2) where x1 != 0, by weight; None if the zero patterns differ."""
    if q1.is_zero_triple() or q2.is_zero_triple():
        raise DomainError("the zero triple is not a point of P(2,3,4)")
    coordinates = list(zip(WEIGHTS, q1.coefficients(), q2.coefficients()))
    if any((x1 == 0) != (x2 == 0) for _, x1, x2 in coordinates):
        return None
    return [(w, x1, x2) for w, x1, x2 in coordinates if x1 != 0]


def moduli_equal_geometric(q1: DepressedQuartic, q2: DepressedQuartic) -> bool:
    """Orbit equality under the weighted scaling over an algebraic closure.

    Zero patterns must agree; then each pair of nonzero coordinates, of
    weights v and w and g = gcd(v, w), must satisfy the relation of equal
    degree x1_v^(w/g) x2_w^(v/g) = x2_v^(w/g) x1_w^(v/g).  A lone nonzero
    coordinate reaches any value: the closure has roots of every order.
    """
    nonzero = _nonzero_coordinates(q1, q2)
    if nonzero is None:
        return False
    for (v, x1_v, x2_v), (w, x1_w, x2_w) in combinations(nonzero, 2):
        g = math.gcd(v, w)
        if x1_v ** (w // g) * x2_w ** (v // g) != x2_v ** (w // g) * x1_w ** (v // g):
            return False
    return True


def moduli_equal_rational(q1: DepressedQuartic, q2: DepressedQuartic) -> Fraction | None:
    """Rational scaling factor lam with gm_scale(lam, q1) == q2, if one exists.

    The lowest-weight nonzero coordinate pins lam to +-r, where r is the
    rational root of its ratio (a root extraction); each candidate is
    verified on all three coordinates.
    """
    nonzero = _nonzero_coordinates(q1, q2)
    if nonzero is None:
        return None
    w, x1, x2 = nonzero[0]
    r = rational_nth_root(x2 / x1, w)
    for lam in () if r is None else (r, -r):
        if gm_scale(lam, q1) == q2:
            return lam
    return None


def from_invariant_point(
    inv_i: RatLike, inv_j: RatLike, alpha: RatLike, beta: RatLike
) -> DepressedQuartic:
    """Quartic with invariants (I, J) through a point of y^2 = x^3 - Ix/3 - J/27.

    This is the inverse of the fibration f -> (-2a/3, b) over a fixed
    invariant pair: the quartic x^4 - 3*alpha*x^2/2 + beta*x + (I/12 -
    3*alpha^2/16).  Its discriminant is forced by the syzygy to be
    (4I^3 - J^2)/27.
    """
    inv_i, inv_j, alpha, beta = rat(inv_i), rat(inv_j), rat(alpha), rat(beta)
    if beta * beta != alpha**3 - inv_i * alpha / 3 - inv_j / 27:
        raise DomainError("(alpha, beta) is not on the invariant-pair curve")
    return DepressedQuartic(
        -3 * alpha / 2,
        beta,
        inv_i / 12 - 3 * alpha**2 / 16,
    )
