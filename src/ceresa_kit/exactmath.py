"""Exact scalar arithmetic: rationals, univariate polynomials, cyclotomic polynomials.

Conventions used throughout the package:

  * Every scalar is a ``fractions.Fraction``: arbitrary precision, always
    stored fully reduced with a positive denominator.  ``rat`` reads the
    "p/q" wire format ("p" when the denominator is 1, optional leading
    minus on the numerator only), and ``str`` writes it.
  * A polynomial is a dense tuple of Fraction coefficients, index =
    degree, trailing zeros trimmed.  The zero polynomial has an empty
    coefficient tuple and degree -1.  ``monic_divmod`` and ``_stretch``
    take plain, untrimmed lists of int coefficients, index = degree.

All values are immutable and every operation is a pure function, so they
can be shared freely between threads.  There are no floats anywhere.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable
from fractions import Fraction

from .errors import DomainError, quoted
from .value import Value

RatLike = Fraction | int | str

# Longest string literal ``rat`` and ``integer`` accept at CPython's default
# limit of 4300 digits on int-to-string conversion.  A literal of L characters
# has a numerator and a denominator below 10^L.  The printed quantity of highest
# degree is -432 * disc, disc of weight 12 in (a, b, c) of weights (2, 3, 4);
# over the lcm of the denominators (at most a^4, b^4 and c^3) its numerator
# and denominator have at most about 11 L + 6 digits.  `max_literal_chars`
# lowers the cap to fit a lower limit, so every value that `invariants`,
# `decide` and `scan` print for accepted input can be printed.
MAX_LITERAL_CHARS = 390
#: CPython's current int-to-string digit limit, read live; 0 for none (3.10).
int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)

# The one ASCII grammar of ``rat`` and ``integer`` on every supported Python:
# ``Fraction`` alone also reads "1_000" on 3.11+, "1 / 2" on 3.12+ and
# non-ASCII digits ("１２"), and ``int`` reads "1_000" and "１２" too.
_RATIONAL_LITERAL = re.compile(r"[+-]?(?:[0-9]+(?:/0*[1-9][0-9]*)?|[0-9]+\.[0-9]*|\.[0-9]+)")
_INTEGER_LITERAL = re.compile(r"[+-]?[0-9]+")


def max_literal_chars() -> int:
    """The longest literal ``rat`` and ``integer`` accept under the current int-to-string limit."""
    limit = int_max_str_digits()
    return min(MAX_LITERAL_CHARS, (limit - 6) // 11) if limit else MAX_LITERAL_CHARS


def _check_length(text: str, kind: str) -> None:
    cap = max_literal_chars()
    if len(text) > cap:
        raise DomainError(f"{kind} literal {quoted(text)} is longer than {cap} characters")


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" (or decimal) string to an exact rational.

    Floats are rejected: this package never rounds.  Exponent notation
    ("1e500000") is rejected too, since it lets a short literal demand an
    integer of unbounded size, and so is a string longer than
    ``max_literal_chars()`` or, once stripped, outside ``_RATIONAL_LITERAL``.
    """
    # int and str first: Fraction's metaclass is ABCMeta, so for any other
    # type isinstance(value, Fraction) goes through ABCMeta.__instancecheck__.
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        _check_length(value, "rational")
        if "e" in value or "E" in value:
            raise DomainError(
                f"invalid rational literal {quoted(value)}: no exponent notation"
            )
        if not _RATIONAL_LITERAL.fullmatch(value.strip()):
            raise DomainError(f"invalid rational literal {quoted(value)}")
        return Fraction(value.strip())
    if isinstance(value, Fraction):
        return value
    raise DomainError(f"cannot interpret {quoted(value)} as an exact rational")


def integer(text: str) -> int:
    """Read an integer literal: an optional sign and ASCII digits, apart from
    surrounding whitespace, as ``rat`` reads its integers.

    ``int`` alone also reads "1_5" and non-ASCII digits ("１５").  Raises
    ``ValueError`` as ``int`` does, so it can serve as an argparse type: a
    ``DomainError`` for a literal longer than ``max_literal_chars()``.
    """
    _check_length(text, "integer")
    text = text.strip()
    if not _INTEGER_LITERAL.fullmatch(text):
        raise ValueError(f"invalid integer literal {quoted(text)}")
    return int(text)


def _int_nth_root(k: int, n: int) -> int:
    """Floor r of the n-th root of a nonnegative integer, by Newton iteration
    from above: by AM-GM no step falls below r, and above r each decreases."""
    if k < 0:
        raise ValueError("negative radicand")
    if k in (0, 1) or n == 1:
        return k
    if n == 2:
        return math.isqrt(k)
    x = 1 << ((k.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + k // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x


def rational_nth_root(q: Fraction, n: int) -> Fraction | None:
    """Exact n-th root of a rational, or None when no rational root exists.

    For even n the input must be >= 0 and the nonnegative root is returned;
    for odd n the sign is carried through.
    """
    if n < 1:
        raise ValueError("root index must be positive")
    if q < 0:
        if n % 2 == 0:
            return None
        r = rational_nth_root(-q, n)
        return None if r is None else -r
    np_, dp = q.numerator, q.denominator
    rn = _int_nth_root(np_, n)
    if rn ** n != np_:
        return None
    rd = _int_nth_root(dp, n)
    if rd ** n != dp:
        return None
    return Fraction(rn, rd)


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None."""
    return rational_nth_root(q, 2)


class UPoly(Value):
    """Dense univariate polynomial over the rationals.

    ``coeffs[i]`` is the coefficient of x^i; trailing zeros are trimmed on
    construction so the leading coefficient is nonzero unless the
    polynomial is zero (empty tuple).
    """

    __slots__ = _fields = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        super().__init__(tuple(cs))

    @classmethod
    def zero(cls) -> UPoly:
        return cls(())

    @classmethod
    def one(cls) -> UPoly:
        return cls((1,))

    @classmethod
    def const(cls, c: RatLike) -> UPoly:
        return cls((rat(c),))

    @classmethod
    def x_pow(cls, k: int) -> UPoly:
        return cls((0,) * k + (1,))

    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def evaluate(self, x: RatLike) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> UPoly:
        return UPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def compose_xpow(self, k: int) -> UPoly:
        """Substitute x -> x^k."""
        if k < 1:
            raise ValueError("power must be positive")
        out = [Fraction(0)] * (k * self.degree() + 1 if self.coeffs else 0)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return UPoly(out)

    def __add__(self, other: UPoly) -> UPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    def __sub__(self, other: UPoly) -> UPoly:
        return self + (-other)

    def __neg__(self) -> UPoly:
        return UPoly(-c for c in self.coeffs)

    def __mul__(self, other: UPoly | RatLike) -> UPoly:
        if not isinstance(other, UPoly):
            s = rat(other)
            return UPoly(c * s for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return UPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> UPoly:
        if n < 0:
            raise ValueError("negative power")
        result = UPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: UPoly) -> tuple[UPoly, UPoly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UPoly.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        inv_lc = 1 / other.lc()
        for i in range(dq, -1, -1):
            q = rem[i + other.degree()] * inv_lc
            quot[i] = q
            if q:
                for j, d in enumerate(other.coeffs):
                    rem[i + j] -= q * d
        return UPoly(quot), UPoly(rem)

    def __floordiv__(self, other: UPoly) -> UPoly:
        return divmod(self, other)[0]

    def __mod__(self, other: UPoly) -> UPoly:
        return divmod(self, other)[1]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            body = str(mag) if (i == 0 or mag != 1) else ""
            glue = "*" if body and term else ""
            if not parts:
                sign = "-" if c < 0 else ""
            else:
                sign = " - " if c < 0 else " + "
            parts.append(f"{sign}{body}{glue}{term}")
        return "".join(parts)


def monic_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials by a monic divisor.

    Polynomials are coefficient lists, index = degree; ``den`` must be
    monic, so the division stays in the integers.  The remainder has
    exactly ``len(den) - 1`` entries and the quotient ``len(num) -
    len(den) + 1`` (none when ``num`` has the lower degree).
    """
    deg = len(den) - 1
    if deg < 0 or den[-1] != 1:
        raise DomainError("divisor must be a monic polynomial")
    rem = list(num) + [0] * max(deg - len(num), 0)
    quot = [0] * max(len(num) - deg, 0)
    terms = [(j, c) for j, c in enumerate(den[:-1]) if c]
    for base in range(len(quot) - 1, -1, -1):
        q = rem[base + deg]
        if q:
            quot[base] = q
            for j, c in terms:
                rem[base + j] -= q * c
    return quot, rem[:deg]


def _stretch(coeffs: list[int], k: int) -> list[int]:
    # p(x) -> p(x^k) on coefficient lists
    out = [0] * ((len(coeffs) - 1) * k + 1)
    out[::k] = coeffs
    return out


def cyclotomic_polynomial(level: int) -> UPoly:
    """The cyclotomic polynomial of the given level.

    The first prime p dividing L is adjoined by its closed form
    Phi_p = 1 + x + ... + x^(p-1), and each further prime p by
    Phi_np(x) = Phi_n(x^p) / Phi_n(x), valid when p does not divide n: one
    exact division per distinct prime after the first, in integer
    arithmetic (every cyclotomic polynomial is monic with integer
    coefficients), so a prime or prime-power level divides nothing.  That
    gives Phi_rad for the radical rad of L, and Phi_L(x) = Phi_rad(x^(L/rad));
    Phi_1 = x - 1.  Nothing is kept: a repcrit profile keeps its own level's.
    """
    if level < 1:
        raise DomainError("cyclotomic level must be positive")
    phi, rad, rest, p = [-1, 1], 1, level, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        if rest % p == 0:
            if rad == 1:
                phi = [1] * p
            else:
                phi, rem = monic_divmod(_stretch(phi, p), phi)
                assert not any(rem)
            rad *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return UPoly(_stretch(phi, level // rad))
