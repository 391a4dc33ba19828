"""Seeded inputs for the benchmark workloads.

Every workload is a closed loop with one client: the next CLI call is made
only after the previous one has returned.  A generator takes the workload
seed and yields an endless stream of distinct calls; the program under test
receives only each call's argv.

Costs are stratified so that two seeds give different inputs with the same
cost distribution: the order of the classes within a block, the kind of
each input within a cycle and the height or size of each input are cycled
round-robin in a seeded order, and only the concrete values are drawn at
random.  That keeps the medians steady from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from oracle import PRESETS

LIGHT = "light"
HEAVY = "heavy"
PRESET = "preset"  # a repcrit preset: timed with every call, in neither class

# Classes of the calls in one block, per workload; the order within each
# block is seeded.  Every block holds the same mix.
BLOCKS = {
    "decide": (LIGHT, LIGHT, LIGHT, HEAVY),
    "scan-grid": (LIGHT, LIGHT, HEAVY),
    "repcrit-dihedral": (LIGHT, HEAVY, PRESET),
}

# Quartic x^4 - (3/2)x^2 + (1/3)x - 1/48, with (I, J) = (2, 6): its
# invariant point has order 6, and so has that of every weighted scaling.
ORDER6_QUARTIC = (Fraction(-3, 2), Fraction(1, 3), Fraction(-1, 48))

# Short class: numerators up to 10^2, denominators up to 10.
SHORT_NUM, SHORT_DEN = 100, 10
# Tall class: integer coefficients of 15 to 25 digits.
TALL_DIGITS = range(15, 26)
# Scan axes: 0, which puts the origin (disc = 0, a skipped row) in every
# grid, plus values of fixed kinds per axis, so that every grid of a class
# mixes small integers, p/7 and p/3 in the same proportions.
SCAN_KINDS = {
    "int": [Fraction(k) for k in range(-3, 4) if k],
    "p/7": [Fraction(p, 7) for p in range(-6, 7) if p],
    "p/3": [Fraction(p, 3) for p in range(-4, 5) if p % 3],
}
SCAN_AXES = {
    LIGHT: (("p/7",), ("p/3",), ("int", "p/7")),  # 2 x 2 x 3 = 12 points
    HEAVY: (("int", "p/7", "p/3"),) * 3,  # 4 x 4 x 4 = 64 points
}
# `scan --threads 2` runs two GIL-bound pool threads that hand the lock back
# and forth; on a 2-vCPU machine that made scan times swing by a third from
# round to round, more than any bound can cover, and the pool gives no gain.
SCAN_THREADS = 1
# Dihedral m ranges: dim V from 10 to about 30 (light) and up to 62 (heavy).
DIHEDRAL_M = {LIGHT: range(15, 33), HEAVY: range(33, 64)}
DIM_V_MIN, DIM_V_MAX = 10, 62


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv, its latency class and what the oracle needs."""

    cls: str
    argv: tuple[str, ...]
    items: int  # curves, grid points or profiles the call decides
    data: tuple


def _rounds(rng: random.Random, values) -> Iterator:
    """Endless round-robin over values, each round in a fresh seeded order."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _radical_inverse(i: int) -> float:
    """Van der Corput: the bits of i mirrored about the binary point."""
    out, scale = 0.0, 0.5
    while i:
        out += scale * (i & 1)
        i >>= 1
        scale /= 2
    return out


def _spread_rounds(rng: random.Random, values, key) -> Iterator:
    """Endless rounds over values; every prefix of a round spreads over key.

    The values are sorted by key (ties in seeded order) and visited in van
    der Corput order from a seeded offset, so that even a short run samples
    the whole key range in the same proportions whatever the seed.
    """
    values = list(values)
    rng.shuffle(values)
    values.sort(key=key)
    order = sorted(range(len(values)), key=_radical_inverse)
    while True:
        offset = rng.randrange(len(values))
        for i in order:
            yield values[(i + offset) % len(values)]


class _Flags:
    """Renders values, alternating "-a -12/7" and "-a=-12/7" for negatives."""

    def __init__(self):
        self.joined = False

    def __call__(self, flag: str, value) -> list[str]:
        text = str(value)
        if not text.startswith("-"):
            return [flag, text]
        self.joined = not self.joined
        return [f"{flag}={text}"] if self.joined else [flag, text]


def _small(rng: random.Random, num: int = SHORT_NUM, den: int = SHORT_DEN) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _digits(rng: random.Random, d: int) -> int:
    return rng.choice((-1, 1)) * rng.randrange(10 ** (d - 1), 10**d)


def _order3_member(t: Fraction, sign: int) -> tuple[Fraction, Fraction, Fraction]:
    # member of the torsion family of (I, J) = (3, 9 * sign) on E0 at t
    inv_i, inv_j = Fraction(3), Fraction(9 * sign)
    g = t**3 - inv_i * t / 3 - inv_j / 27  # never 0 for rational t
    alpha = t * g
    return (-3 * alpha / 2, g * g, g * g * inv_i / 12 - 3 * alpha**2 / 16)


def _order6_scaling(lam: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    a, b, c = ORDER6_QUARTIC
    return (lam**2 * a, lam**3 * b, lam**4 * c)


def _singular(r: Fraction, q: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    # (x - r)^2 (x^2 + 2rx + q) has a double root, so disc = 0
    return (q - 3 * r * r, 2 * r**3 - 2 * r * q, r * r * q)


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def _decide_coeffs(rng: random.Random, cls: str, kind: str, digits: Iterator[int]):
    if kind == "t2":  # b = 0, c = a^2/36 gives J = 0: order 2
        if cls == LIGHT:
            a = Fraction(_nonzero(rng, 1, SHORT_NUM), rng.randint(1, SHORT_DEN))
        else:
            a = 6 * Fraction(_digits(rng, rng.choice(TALL_DIGITS) - 1))
        return (a, Fraction(0), a * a / 36)
    if kind == "t3":
        if cls == LIGHT:
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        else:
            t = Fraction(_digits(rng, 5), rng.randrange(10, 100))
        return _order3_member(t, rng.choice((-1, 1)))
    if kind == "t6":
        if cls == LIGHT:
            lam = Fraction(_nonzero(rng, 1, 9), rng.randint(1, 7))
        else:
            lam = Fraction(_digits(rng, 5), rng.randint(1, 9))
        return _order6_scaling(lam)
    if kind == "singular":
        return _singular(_small(rng, 5, 3), _small(rng, 20, 5))
    if cls == LIGHT:
        return (_small(rng), _small(rng), _small(rng))
    d = next(digits)
    return tuple(Fraction(_digits(rng, d)) for _ in range(3))


def decide_calls(seed: int) -> Iterator[Call]:
    """`decide --format json`, three short calls to one tall call per block.

    A quarter of each class are constructed torsion curves (orders 2, 3
    and 6); one short call in 48 is a singular quartic (exit code 2).
    """
    rng = random.Random(f"decide:{seed}")
    blocks = _rounds(rng, BLOCKS["decide"])
    kinds = {
        LIGHT: _rounds(rng, ["t2", "t3", "t6"] + ["generic"] * 9),
        HEAVY: _rounds(rng, ["t2", "t3", "t6"] + ["generic"] * 9),
    }
    singular_every = 48
    digits = _rounds(rng, TALL_DIGITS)
    flags = _Flags()
    seen: set = set()
    n_light = 0
    while True:
        cls = next(blocks)
        kind = next(kinds[cls])
        if cls == LIGHT:
            n_light += 1
            if n_light % singular_every == 0:
                kind = "singular"
        for attempt in range(100):
            coeffs = _decide_coeffs(rng, cls, kind, digits)
            if coeffs not in seen:
                break
            if attempt == 50:  # this kind's small input space is used up
                kind = "generic"
        seen.add(coeffs)
        argv = ["decide"]
        for flag, value in zip(("-a", "-b", "-c"), coeffs):
            argv += flags(flag, value)
        argv += ["--format", "json"]
        yield Call(cls, tuple(argv), 1, coeffs)


def scan_calls(seed: int, out_path: str) -> Iterator[Call]:
    """`scan --threads 1 --out FILE`, two small grids to one large grid."""
    rng = random.Random(f"scan-grid:{seed}")
    blocks = _rounds(rng, BLOCKS["scan-grid"])
    seen: set = set()
    while True:
        cls = next(blocks)
        while True:
            axes = tuple(
                tuple(sorted([Fraction(0)] + [rng.choice(SCAN_KINDS[k]) for k in kinds]))
                for kinds in SCAN_AXES[cls]
            )
            if axes not in seen:
                break
        seen.add(axes)
        argv = ["scan"]
        for flag, axis in zip(("--a-range", "--b-range", "--c-range"), axes):
            argv += [flag, ",".join(str(v) for v in axis)]
        argv += ["--threads", str(SCAN_THREADS), "--out", out_path]
        yield Call(cls, tuple(argv), math.prod(len(axis) for axis in axes), axes)


def dihedral_genus(m: int, a: int, b: int) -> int:
    return m + 1 - math.gcd(a, m) - math.gcd(b, m)


def dihedral_triples(m: int) -> list[tuple[int, int, int]]:
    """Valid (m, a, b): 0 < a < b < m/2, gcd(m, a, b) = 1, dim V in range."""
    return [
        (m, a, b)
        for a in range(1, m)
        for b in range(a + 1, m)
        if 2 * b < m
        and math.gcd(m, math.gcd(a, b)) == 1
        and DIM_V_MIN <= dihedral_genus(m, a, b) <= DIM_V_MAX
    ]


def repcrit_calls(seed: int) -> Iterator[Call]:
    """`repcrit --profile dihedral:m,a,b --format json`.

    Blocks of one small-m profile, one large-m profile and one preset, the
    presets taking turns.  Each class cycles through its m values; within
    an m, (a, b) is drawn without replacement, spread over the genus range,
    and repeats only after every triple of that m has been used.
    """
    rng = random.Random(f"repcrit-dihedral:{seed}")
    blocks = _rounds(rng, BLOCKS["repcrit-dihedral"])
    presets = _rounds(rng, sorted(PRESETS))
    levels = {cls: _rounds(rng, ms) for cls, ms in DIHEDRAL_M.items()}
    triples = {m: _spread_rounds(rng, dihedral_triples(m), key=lambda t: dihedral_genus(*t))
               for ms in DIHEDRAL_M.values() for m in ms}
    while True:
        cls = next(blocks)
        if cls == PRESET:
            name = next(presets)
            yield Call(cls, ("repcrit", "--profile", name, "--format", "json"), 1,
                       ("preset", name))
            continue
        m, a, b = next(triples[next(levels[cls])])
        yield Call(cls, ("repcrit", "--profile", f"dihedral:{m},{a},{b}", "--format", "json"),
                   1, ("dihedral", m, a, b))
