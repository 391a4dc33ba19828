"""Character-theoretic vanishing criteria from eigenvalue data of group actions.

A finite group acting on the g-dimensional space V of differentials of a
curve is described by an :class:`ActionProfile`: one entry per conjugacy
class, carrying the class size and the eigenvalue exponents of a class
representative (all eigenvalues are roots of unity of a common level L).
This is enough to evaluate characters of any power of a class element,
since the eigenvalues of h^k are the k-th powers of those of h.  A cyclic
group is fixed by its generator: a :class:`CyclicProfile` holds the order n
and the generator's exponents (level n) and is evaluated from them alone.

Two vanishing criteria are evaluated from a profile:

  * the Griffiths-level criterion: the invariants of the exterior cube of V
    vanish, in which case the Ceresa class is torsion modulo algebraic
    equivalence (conditional on the Hodge conjecture in general);
  * the Chow-level criterion: the invariants of the primitive part of the
    degree-3 cohomology of the Jacobian vanish, computed as
    dim (wedge^3 H^1)^G - dim (H^1)^G with H^1 = V + conjugate(V), in which
    case the Ceresa class is torsion modulo rational equivalence.

The exterior-cube character is the classical Newton formula
chi_w3(h) = (chi(h)^3 - 3 chi(h) chi(h^2) + 2 chi(h^3)) / 6.  Invariant
dimensions are the usual averages over the group, computed in exact integer
arithmetic: a character value is an integer vector v with sum v[i] zeta^i,
packed into one Python int by Kronecker substitution (digit i, a fixed
number of bytes wide, holds v[i]), so products of characters are products
of ints.
The class sums of an ActionProfile are folded mod x^L - 1 and reduced mod
the L-th cyclotomic polynomial; the average is rational exactly when the
remainder is constant.  Over a cyclic group the sum of zeta^(jk) over the
elements g^k is n or 0, so each group sum is n times a count read off the
generator's count vector, or, for chi^3, one constant term of its packed
cube: one count vector per profile and one cube per space, where the class
sums would pack and cube n classes.  A profile's first dimension read
evaluates both spaces, V and H^1, and Phi_L; the profile keeps the result.
An irrational, non-integral or negative average proves the input was not a
genuine group action and raises :class:`ProfileError`.

The module also ships the one-parameter dihedral covers
y^m = ((x+1)/(x-1))^a ((x+t)/(x-t))^b with 0 < a < b < m/2 and
gcd(m, a, b) = 1: their genus, the eigencharacter profile of the rotation
subgroup, and the triple-sum test deciding whether the exterior cube of V
has invariants under the full dihedral action.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .errors import DomainError, ProfileError, clipped, open_path, quoted
from .exactmath import cyclotomic_polynomial, integer, monic_divmod
from .value import Value


# Caps on a profile, each checked before anything is built.  The kernel
# packs count vectors of `level` digits and cubes them, and a dihedral
# spectrum lists up to m - 1 members, so MAX_LEVEL (on the level and on m)
# keeps `repcrit --profile dihedral:m,1,3` under a second.  The group order
# sets the width of every packed digit (`_digit_bytes`): at MAX_GROUP_ORDER,
# group_order * d^3 < 2^100 for any dim d that MAX_PROFILE_CHARS characters
# can list; a refused order is not printed, as str() may not convert it.
# An ActionProfile's classes each cost products of level-long ints, so
# MAX_CLASS_WORK caps classes * level.  Timed slices at level 10^4 and order
# 10^8 with dense exponents (CPython 3.11, 2 vCPUs) took up to about 0.6 s a
# class, so a file at the cap (15 classes at level 10^4) takes about 10 s;
# the cost of a class grows faster than its level, so a lower level with
# more classes takes less.
MAX_LEVEL = 10**4
MAX_GROUP_ORDER = 10**8
MAX_PROFILE_CHARS = 2**24
MAX_CLASS_WORK = 15 * 10**4


def _check_level(level: int, what: str) -> None:
    if level > MAX_LEVEL:
        raise DomainError(f"{what} {clipped(level)} is above the level cap {MAX_LEVEL}")


class ConjClass(Value):
    """One conjugacy class: its size and a representative's eigenvalue exponents."""

    __slots__ = _fields = ("size", "exps")
    size: int
    exps: tuple[int, ...]


class ActionProfile(Value):
    """Eigenvalue data of a finite group acting on a space of dimension g."""

    __slots__ = ("group_order", "level", "classes", "evaluation")
    _fields = ("group_order", "level", "classes")
    group_order: int
    level: int
    classes: tuple[ConjClass, ...]

    def __init__(self, group_order: int, level: int, classes: tuple[ConjClass, ...]):
        if group_order < 1 or level < 1:
            raise ProfileError("group order and level must be positive")
        if group_order > MAX_GROUP_ORDER:
            raise DomainError(f"group order is above the cap {MAX_GROUP_ORDER}")
        _check_level(level, "level")
        if not classes:
            raise ProfileError("profile has no conjugacy classes")
        if len(classes) * level > MAX_CLASS_WORK:
            raise DomainError(f"{len(classes)} classes at level {level} are above the cap "
                              f"{MAX_CLASS_WORK} on classes * level")
        dims = {len(cls.exps) for cls in classes}
        if len(dims) != 1:
            raise ProfileError("conjugacy classes disagree on dim V")
        if any(cls.size < 1 for cls in classes):
            raise ProfileError("class sizes must be positive")
        if sum(cls.size for cls in classes) != group_order:
            raise ProfileError("class sizes do not sum to the group order")
        if not any(all(e % level == 0 for e in cls.exps) for cls in classes):
            raise ProfileError("identity class (all exponents 0) is missing")
        normalized = tuple(
            ConjClass(cls.size, tuple([e % level for e in cls.exps])) for cls in classes
        )
        super().__init__(group_order, level, normalized)

    @property
    def dim(self) -> int:
        return len(self.classes[0].exps)


class CyclicProfile(Value):
    """A cyclic group of order n acting on V, fixed by its generator.

    ``generator`` holds the generator's eigenvalue exponents, reduced mod n
    on construction; the level is n.  The kernel reads the generator alone.
    ``classes`` lists the n elements g^k as an :class:`ActionProfile` does,
    built each time it is read.  ``evaluation`` is kept by `_space_sums`.
    """

    __slots__ = ("group_order", "generator", "evaluation")
    _fields = ("group_order", "generator")
    group_order: int
    generator: tuple[int, ...]

    def __init__(self, group_order: int, generator: tuple[int, ...]):
        if group_order < 1:
            raise DomainError("cyclic group order must be positive")
        _check_level(group_order, "cyclic group order")
        super().__init__(group_order, tuple([e % group_order for e in generator]))

    @property
    def level(self) -> int:
        return self.group_order

    @property
    def dim(self) -> int:
        return len(self.generator)

    @property
    def classes(self) -> tuple[ConjClass, ...]:
        n = self.group_order
        return tuple(
            ConjClass(1, tuple([k * e % n for e in self.generator])) for k in range(n)
        )

    def to_json(self) -> dict:
        classes = [cls.to_json() for cls in self.classes]
        return {"group_order": self.group_order, "level": self.level, "classes": classes}


Profile = ActionProfile | CyclicProfile


def _json_int(value) -> int:
    # JSON integers only: int() would truncate 1.9 and accept true or "3".
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {quoted(value)}")
    return value


def profile_from_json(data: dict) -> ActionProfile:
    try:
        classes = tuple(
            ConjClass(_json_int(cls["size"]), tuple(_json_int(e) for e in cls["exps"]))
            for cls in data["classes"]
        )
        order, level = _json_int(data["group_order"]), _json_int(data["level"])
        return ActionProfile(order, level, classes)
    except (KeyError, TypeError) as exc:  # a wrong shape; ActionProfile's errors pass
        raise ProfileError(f"malformed profile JSON: {exc}") from exc


def _digit_bytes(profile: Profile, d: int) -> int:
    # A class contributes at most d^3 to any digit of chi^3 (and less to
    # chi*chi2 and chi3), so no digit of a group sum exceeds group_order * d^3;
    # a cyclic profile's one cube has digits of at most d^3.  Every partial
    # sum of a digit, in the class sums and in `_fold`, adds non-negative
    # terms of that final digit, so it never exceeds the bound either, and
    # the bound's bit length, in whole bytes (at least one), never carries.
    return max(1, ((profile.group_order * d**3).bit_length() + 7) // 8)


def _counts(exps: Sequence[int], level: int) -> list[int]:
    # The count vector of exps (reduced mod the level): entry i is how many
    # exponents equal i.
    counts = [0] * level
    for e in exps:
        counts[e] += 1
    return counts


def _pack(counts: Sequence[int], nbytes: int) -> int:
    # Kronecker substitution of a count vector: digit i, nbytes wide, holds
    # counts[i].  Only the low bytes that some count reaches are written, one
    # byte plane at a time; counts below 256 (every cyclic count vector,
    # whose entries are at most 2 dim) are the one plane bytes(counts).
    digits = bytearray(nbytes * len(counts))
    top = max(counts)
    if top < 256:
        digits[::nbytes] = bytes(counts)
    else:
        for j in range((top.bit_length() + 7) // 8):
            digits[j::nbytes] = bytes([c >> (8 * j) & 255 for c in counts])
    return int.from_bytes(digits, "little")


def _fold(packed: int, level: int, nbytes: int) -> int:
    # Reduce mod x^level - 1 by adding the digits at and above `level` onto
    # the low ones (no carries, by the width bound).
    span = 8 * nbytes * level
    low = (1 << span) - 1
    while packed >> span:
        packed = (packed & low) + (packed >> span)
    return packed


def _unpack(packed: int, level: int, nbytes: int) -> tuple[int, ...]:
    data = packed.to_bytes(nbytes * level, "little")
    return tuple([int.from_bytes(data[i:i + nbytes], "little")
                  for i in range(0, len(data), nbytes)])


def _vector_to_dim(total: Sequence[int], scale: int, phi: Sequence[int]) -> int:
    # total[i] are the coefficients of scale * (invariant average) in powers
    # of zeta; the remainder mod Phi_L, of coefficients phi, is the unique
    # representative of degree < phi(L), constant iff the value is rational.
    # A total shorter than Phi_L (every cyclic one has length 1) is its own.
    rem = total if len(total) < len(phi) else monic_divmod(total, phi)[1]
    if any(rem[1:]):
        raise ProfileError("invariant average is irrational; not a group action")
    dim, r = divmod(rem[0], scale)
    if r or dim < 0:
        raise ProfileError(
            f"invariant average {clipped(Fraction(rem[0], scale))} is not a nonnegative integer"
        )
    return dim


def _conjugate_counts(counts: list[int]) -> list[int]:
    # The count vector of a multiset together with its negatives: c[i] + c[-i].
    return [a + b for a, b in zip(counts, counts[:1] + counts[:0:-1])]


def _cyclic_sums(counts: list[int], level: int, nbytes: int) -> tuple[tuple[int, ...], ...]:
    # The four group sums of a cyclic group of order `level` on the space
    # whose count vector is `counts`; see `_group_sums`.
    packed = _pack(counts, nbytes)
    digit = (1 << 8 * nbytes) - 1  # mask of digit 0, the constant term
    cube = _fold(packed * packed * packed, level, nbytes) & digit
    # c[i] * c[-2i] for i = 1, ..., n: c[-2i] is entry 2n - 2i of c + c
    cross = sum(map(mul, counts[1:] + counts[:1], (counts * 2)[-2::-2]))
    triple = sum(counts[::level // math.gcd(3, level)])  # the i with 3i = 0
    return tuple((level * total,) for total in (counts[0], cube, cross, triple))


def _group_sums(profile: Profile) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Sums of chi, chi^3, chi * chi2 and chi3 over the group, folded, for
    V and for H^1 at once.

    chi is the character of V or H^1 on a group element h, chi2 and chi3
    its values on h^2 and h^3.  H^1's count vectors are V's with their
    conjugates added, c[i] + c[-i].  An ActionProfile sums size * value over
    its classes, each value packed from a count vector; one pass over the
    classes counts each class's exponents e, 2e and 3e once and packs both
    spaces' values from them.  Over a cyclic group of order n, the count
    vector c of the space is formed from the generator's, which is counted
    once.  chi(g^k) = P(zeta^k) for the packed count vector P, and the sum of
    zeta^(jk) over k is n when n divides j and 0 otherwise.  So the sums are
    n * c[0], n times the constant term of P^3 folded mod x^n - 1 (the one
    product), n * (sum of c[i] * c[-2i]) and n * (sum of c[i] over the i
    with 3i = 0), each returned as a vector of length one.
    """
    level, d = profile.level, profile.dim
    widths = {"V": _digit_bytes(profile, d), "H1": _digit_bytes(profile, 2 * d)}
    if isinstance(profile, CyclicProfile):
        counts = _counts(profile.generator, level)
        return {"V": _cyclic_sums(counts, level, widths["V"]),
                "H1": _cyclic_sums(_conjugate_counts(counts), level, widths["H1"])}

    sums = {space: [0, 0, 0, 0] for space in widths}
    for cls in profile.classes:
        on_v = [_counts([k * e % level for e in cls.exps], level) for k in (1, 2, 3)]
        on_h1 = [_conjugate_counts(counts) for counts in on_v]
        for space, vectors in (("V", on_v), ("H1", on_h1)):
            nbytes = widths[space]
            c1, c2, c3 = [_pack(counts, nbytes) for counts in vectors]
            for i, value in enumerate((c1, c1 * c1 * c1, c1 * c2, c3)):
                sums[space][i] += cls.size * value
    return {space: tuple(_unpack(_fold(total, level, nbytes), level, nbytes)
                         for total in sums[space])
            for space, nbytes in widths.items()}


def _space_sums(profile: Profile, space: str) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    # One space's group sums and Phi_L's integer coefficients.  The first read
    # evaluates the profile for both spaces, and the profile keeps it.
    if space not in ("V", "H1"):
        raise DomainError(f"unknown space {quoted(space)}; expected 'V' or 'H1'")
    try:
        sums, phi = profile.evaluation
    except AttributeError:
        sums = _group_sums(profile)
        phi = tuple([c.numerator for c in cyclotomic_polynomial(profile.level).coeffs])
        object.__setattr__(profile, "evaluation", (sums, phi))
    return sums[space], phi


def dim_inv_wedge3(profile: Profile, space: str = "V") -> int:
    """Dimension of the group invariants of the exterior cube of V or of H^1."""
    if profile.dim < 3:
        raise DomainError("exterior cube needs dim V >= 3")
    (_, cube, cross, triple), phi = _space_sums(profile, space)
    # 6 * chi_wedge3 = chi^3 - 3 chi chi2 + 2 chi3, summed over the group
    total = [a - 3 * b + 2 * c for a, b, c in zip(cube, cross, triple)]
    return _vector_to_dim(total, 6 * profile.group_order, phi)


def invariant_dim(profile: Profile, space: str = "V") -> int:
    """Dimension of the group invariants of V or of H^1 = V + conjugate(V)."""
    (total, *_), phi = _space_sums(profile, space)
    return _vector_to_dim(total, profile.group_order, phi)


def griffiths_criterion_applies(profile: Profile) -> bool:
    """True when the invariants of the exterior cube of V vanish.

    A true result means the Ceresa class of any curve realizing the profile
    is torsion modulo algebraic equivalence, conditional on the Hodge
    conjecture for the relevant abelian varieties.
    """
    return dim_inv_wedge3(profile, "V") == 0


def primitive_dim(d3: int, d1: int) -> int:
    """d3 - d1 = dim (wedge^3 H^1)^G - dim (H^1)^G, which no group action makes negative."""
    if d3 < d1:
        raise ProfileError(
            f"dim (wedge^3 H1)^G = {d3} < dim (H1)^G = {d1}; not a group action"
        )
    return d3 - d1


def chow_criterion_applies(profile: Profile) -> bool:
    """True when the invariants of the primitive degree-3 cohomology vanish.

    Computed as dim (wedge^3 H^1)^G - dim (H^1)^G; the difference is exact
    because taking invariants of a finite group is exact in characteristic
    zero, and the embedding of H^1 twists by a Tate twist that does not
    change the group action.
    """
    return primitive_dim(dim_inv_wedge3(profile, "H1"), invariant_dim(profile, "H1")) == 0


def cyclic_profile(order: int, generator_exps: Sequence[int]) -> CyclicProfile:
    """Profile of a cyclic group from its generator's exponents, read mod the order."""
    return CyclicProfile(order, tuple(generator_exps))


def _check_dihedral_params(m: int, a: int, b: int) -> None:
    if not (0 < a < b and 2 * b < m):
        need = "0 < a < b < m/2, got (m, a, b) ="
    elif math.gcd(m, math.gcd(a, b)) != 1:
        need = "gcd(m, a, b) = 1, got"
    else:
        _check_level(m, "m =")
        return
    raise DomainError(f"need {need} ({', '.join(map(clipped, (m, a, b)))})")


def dihedral_genus(m: int, a: int, b: int) -> int:
    """Genus m + 1 - gcd(a, m) - gcd(b, m) of the smooth cover member."""
    _check_dihedral_params(m, a, b)
    return m + 1 - math.gcd(a, m) - math.gcd(b, m)


def _epsilon_spectrum(m: int, a: int, b: int) -> list[int]:
    """The n in 1, ..., m - 1 with an eigencharacter: m divides neither n*a nor n*b.

    m divides n*c exactly when n is a multiple of m/gcd(m, c), and there are
    gcd(m, c) such n in 0, ..., m - 1, so two strided slice assignments, one
    for a and one for b, strike them out of range(m), 0 included.
    """
    members = list(range(m))
    for c in (a, b):
        g = math.gcd(m, c)
        members[::m // g] = [0] * g
    return list(filter(None, members))


def dihedral_profile(m: int, a: int, b: int) -> CyclicProfile:
    """Eigencharacter profile of the rotation subgroup of order m.

    The k-th power of the rotation acts with exponent multiset
    {k*n mod m : n in the eigencharacter spectrum}; the spectrum size must
    reproduce the genus formula.
    """
    genus = dihedral_genus(m, a, b)
    spectrum = tuple(_epsilon_spectrum(m, a, b))
    assert len(spectrum) == genus, (m, a, b)
    return cyclic_profile(m, spectrum)


def dihedral_criterion(m: int, a: int, b: int) -> tuple[int, tuple[int, int, int] | None]:
    """Genus of the cover and its witness triple, None when the criterion holds."""
    # The genus is at least 3, as the criterion needs: 0 < a < b < m/2 makes
    # gcd(a, m) and gcd(b, m) divisors of m below m/2, so each is at most
    # m/3, and m + 1 - gcd(a, m) - gcd(b, m) >= m/3 + 1 > 2 since m >= 5.
    # dihedral_genus checks the parameters for both.
    genus = dihedral_genus(m, a, b)
    spectrum = _epsilon_spectrum(m, a, b)
    members = set(spectrum)
    for i, n1 in enumerate(spectrum):
        for n2 in spectrum[i + 1:]:
            n3 = m - n1 - n2
            if n3 > n2 and n3 in members:
                return genus, (n1, n2, n3)
    return genus, None


def dihedral_witness_triple(m: int, a: int, b: int) -> tuple[int, int, int] | None:
    """First triple n1 < n2 < n3 of spectrum members with n1 + n2 + n3 = m."""
    return dihedral_criterion(m, a, b)[1]


def dihedral_vanishing(m: int, a: int, b: int) -> bool:
    """True when the exterior cube of V has no dihedral invariants.

    Equivalent to the absence of a spectrum triple summing to m: a triple
    summing to 2m reflects to one summing to m, and invariants under the
    full dihedral group exist exactly when they exist under the rotation
    subgroup.
    """
    return dihedral_witness_triple(m, a, b) is None


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


def preset_profile(name: str) -> CyclicProfile:
    """Built-in profiles, plus "dihedral:m,a,b" for the cover families."""
    if name in PRESETS:
        return cyclic_profile(*PRESETS[name])
    if name.startswith("dihedral:"):
        try:
            m, a, b = (integer(part) for part in name.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise DomainError(f"expected dihedral:m,a,b, got {quoted(name)}") from exc
        return dihedral_profile(m, a, b)
    raise DomainError(f"unknown profile preset {quoted(name)}")


def load_profile(source: str) -> Profile:
    """The profile `source` names: a preset, "dihedral:m,a,b" or a JSON file,
    of which at most MAX_PROFILE_CHARS characters (and one more, to tell) are read."""
    if source in PRESETS or source.startswith("dihedral:"):
        return preset_profile(source)
    import json  # only where a file is decoded, so that importing the package loads no json

    try:
        with open_path(source, encoding="utf-8") as handle:
            text = handle.read(MAX_PROFILE_CHARS + 1)  # an endless stream stops here
        data = json.loads(text) if len(text) <= MAX_PROFILE_CHARS else None
    except FileNotFoundError as exc:
        raise DomainError(f"no such preset or profile file: {quoted(source)}") from exc
    except OSError as exc:
        raise DomainError(f"cannot read profile file {quoted(source)}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # undecodable, too long an integer, too deep
        raise DomainError(f"invalid profile JSON in {quoted(source)}: {exc}") from exc
    if len(text) > MAX_PROFILE_CHARS:
        raise DomainError(
            f"profile file {quoted(source)} has more than {MAX_PROFILE_CHARS} characters"
        )
    return profile_from_json(data)
