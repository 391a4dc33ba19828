"""A fixed pure-Python routine that measures how fast the machine runs now.

The benchmark's machine is shared: its speed drifts by a fifth or more over
tens of seconds, and every timing of a run moves with it.  The benchmark
therefore times this routine after every CLI call and reports each call's
time as a multiple of the routine's median time in the same stretch of the
run.  A slower or faster machine scales both alike and cancels; a slower or
faster program does not.

The routine mixes the kinds of work the CLI does: an integer convolution
loop (the `repcrit` kernel's kind), `Fraction` arithmetic on small and on
20-digit values (`quartic` and `elliptic`), and building, printing and
parsing JSON and CSV text (`cli`).  It imports nothing from the package
under test and its inputs never change, so a change to the program cannot
change its cost.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

_LEVEL = 32
_U = [(i * 7919) % 13 for i in range(_LEVEL)]
_V = [(i * 104729) % 11 for i in range(_LEVEL)]
_TALL = (Fraction(123456789012345678901, 98765432109),
         Fraction(-55555555555555555, 7777777),
         Fraction(3141592653589793238, 2718281828))
_SHORT = (Fraction(-12, 7), Fraction(5, 3), Fraction(-1, 48))
_ROWS = [[Fraction(p, 7), Fraction(q, 3), p * q] for p in range(-4, 5) for q in (-2, 1)]


def _convolution() -> list[int]:
    out = [0] * _LEVEL
    for i, ui in enumerate(_U):
        if ui:
            for j, vj in enumerate(_V):
                if vj:
                    k = i + j
                    if k >= _LEVEL:
                        k -= _LEVEL
                    out[k] += ui * vj * 1000003
    return out


def _invariants(a: Fraction, b: Fraction, c: Fraction) -> tuple:
    inv_i = a * a + 12 * c
    inv_j = 72 * a * c - 2 * a**3 - 27 * b * b
    disc = (-4 * a**3 * b**2 - 27 * b**4 + 16 * a**4 * c
            + 144 * a * b**2 * c - 128 * a**2 * c**2 + 256 * c**3)
    return inv_i, inv_j, disc, inv_i**3 == 27 * disc


def _text(values) -> int:
    record = {"I": str(values[0]), "J": str(values[1]), "disc": str(values[2]),
              "rows": [",".join(str(v) for v in row) for row in _ROWS]}
    return len(json.loads(json.dumps(record, indent=2))["rows"])


def reference() -> int:
    """One pass of the fixed work; returns a value so that none is skipped."""
    short = _invariants(*_SHORT)
    tall = _invariants(*_TALL)
    return sum(_convolution()) + _text(short) + _text(tall)


def time_reference() -> int:
    """Nanoseconds one pass of the reference routine takes now."""
    start = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - start
