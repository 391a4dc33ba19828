"""What a caller may type: the literal grammar of ``rat`` and ``integer``, its
length caps, and the names of the built-in ``repcrit`` profiles.

The module loads no ``fractions``, so that the command-line parser can read
it at start-up; ``exactmath`` and ``repcrit`` re-export its names.
"""

import re
import sys

from .errors import DomainError, quoted

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


def rational_literal(text: str) -> str:
    """``text`` stripped, once it is a rational literal ``rat`` may read:
    at most ``max_literal_chars()`` long, with no exponent ("1e500000" lets
    a short literal demand an integer of unbounded size), and, once
    stripped, inside ``_RATIONAL_LITERAL``.  Raises ``DomainError`` otherwise.
    """
    _check_length(text, "rational")
    if "e" in text or "E" in text:
        raise DomainError(f"invalid rational literal {quoted(text)}: no exponent notation")
    if not _RATIONAL_LITERAL.fullmatch(text.strip()):
        raise DomainError(f"invalid rational literal {quoted(text)}")
    return text.strip()


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


#: Built-in cyclic profiles: name -> (group order, generator exponents).
PRESETS = {
    # Order-3 cover automorphism of y^3 = quartic acting on the three
    # differentials with eigenvalue exponents (1, 1, 2) at level 3.
    "picard_c3": (3, (1, 1, 2)),
    # Order-9 automorphism (x, y) -> (zeta^3 x, zeta y) of y^3 = x^4 + x acting
    # on the basis dx/y^2, x dx/y^2, dx/y with exponents (1, 4, 2) at level 9.
    "c9_x4px": (9, (1, 4, 2)),
    # Order-7 symmetry of the Klein quartic, exponents (1, 2, 4) at level 7.
    "klein_c7": (7, (1, 2, 4)),
}

PRESET_NAMES = tuple(PRESETS)
