from __future__ import annotations

import copy
import importlib
import json
import math
import pickle
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ceresa_kit
from ceresa_kit import cli, repcrit
from ceresa_kit.errors import DomainError, ProfileError, quoted
from ceresa_kit.exactmath import UPoly
from ceresa_kit.repcrit import (
    ActionProfile,
    ConjClass,
    chow_criterion_applies,
    cyclic_profile,
    dihedral_criterion,
    dihedral_genus,
    dihedral_profile,
    dihedral_vanishing,
    dihedral_witness_triple,
    dim_inv_wedge3,
    griffiths_criterion_applies,
    invariant_dim,
    preset_profile,
    profile_from_json,
)
from oracles import (
    char_power,
    cyc_to_rational,
    epsilon_spectrum_by_definition,
    invariant_dim_cyclotomic,
    invariants_bruteforce,
    wedge3_dim_cyclotomic,
    wedge3_invariants_bruteforce,
)


def test_char_power_examples():
    identity = ConjClass(1, (0, 0, 0))
    for k in (0, 1, 5):
        assert cyc_to_rational(char_power(identity, k, 3)) == 3

    cls = ConjClass(1, (1, 1, 2))
    assert char_power(cls, 1, 3).rep == UPoly([-1, 1])  # 2*zeta + zeta^2 = zeta - 1
    assert cyc_to_rational(char_power(cls, 3, 3)) == 3


def test_profile_validation():
    with pytest.raises(ProfileError):
        ActionProfile(3, 3, (ConjClass(1, (0, 0, 0)), ConjClass(1, (1, 1, 2))))
    with pytest.raises(ProfileError):
        ActionProfile(2, 3, (ConjClass(1, (1, 1, 2)), ConjClass(1, (2, 2, 1))))
    with pytest.raises(ProfileError):
        ActionProfile(2, 3, (ConjClass(1, (0, 0, 0)), ConjClass(1, (1, 2))))
    with pytest.raises(DomainError):
        cyclic_profile(0, (1, 2, 3))
    ActionProfile(3, 3, (ConjClass(1, (0, 0, 0)), ConjClass(2, (1, 1, 2))))


def test_dim_inv_wedge3_examples():
    assert dim_inv_wedge3(preset_profile("picard_c3"), "V") == 0
    assert dim_inv_wedge3(cyclic_profile(1, (0, 0, 0)), "V") == 1
    assert dim_inv_wedge3(preset_profile("klein_c7"), "V") == 1
    with pytest.raises(DomainError):
        dim_inv_wedge3(cyclic_profile(3, (1, 2)), "V")  # dim V < 3
    with pytest.raises(DomainError):
        dim_inv_wedge3(preset_profile("picard_c3"), "W")


def test_malformed_profile_is_detected():
    # Not a group action: averages of characters are irrational.
    fake = ActionProfile(2, 3, (ConjClass(1, (0, 0, 0)), ConjClass(1, (1, 1, 1))))
    with pytest.raises(ProfileError):
        invariant_dim(fake, "V")
    fake4 = ActionProfile(2, 4, (ConjClass(1, (0, 0, 0)), ConjClass(1, (1, 0, 0))))
    with pytest.raises(ProfileError):
        dim_inv_wedge3(fake4, "V")
    # Integral averages, but dim (wedge^3 H1)^G = 2 < 3 = dim (H1)^G.
    fake_h1 = ActionProfile(4, 2, (ConjClass(1, (0, 0, 0)), ConjClass(3, (0, 0, 1))))
    with pytest.raises(ProfileError, match="2 < dim"):
        chow_criterion_applies(fake_h1)


def test_criteria_on_presets():
    assert griffiths_criterion_applies(preset_profile("picard_c3"))
    assert not griffiths_criterion_applies(preset_profile("klein_c7"))
    assert not griffiths_criterion_applies(cyclic_profile(1, (0, 0, 0)))

    assert chow_criterion_applies(preset_profile("c9_x4px"))
    assert not chow_criterion_applies(preset_profile("picard_c3"))
    assert not chow_criterion_applies(preset_profile("klein_c7"))
    assert not chow_criterion_applies(cyclic_profile(1, (0, 0, 0)))


def test_chow_criterion_pieces_on_picard_profile():
    profile = preset_profile("picard_c3")
    assert dim_inv_wedge3(profile, "H1") == 2  # the triples {1,1,1} and {2,2,2}
    assert invariant_dim(profile, "H1") == 0
    trivial = cyclic_profile(1, (0, 0, 0))
    assert dim_inv_wedge3(trivial, "H1") == 20  # C(6, 3)
    assert invariant_dim(trivial, "H1") == 6
    wide = cyclic_profile(1, (0,) * 300)  # counts above one byte
    assert invariant_dim(wide, "V") == 300 and invariant_dim(wide, "H1") == 600
    assert dim_inv_wedge3(wide, "V") == math.comb(300, 3)
    assert dim_inv_wedge3(wide, "H1") == math.comb(600, 3)


def test_c9_preset_exponents():
    # The degree-9 symmetry (x, y) -> (w^3 x, w y) of y^3 = x^4 + x acts on
    # dx/y^2, x dx/y^2, dx/y with eigenvalue exponents 1, 4, 2.
    profile = preset_profile("c9_x4px")
    assert profile.group_order == 9 and profile.level == 9
    generator = profile.classes[1]
    assert generator.exps == (1, 4, 2)


def test_cyclic_invariants_match_bruteforce_on_presets():
    for name in ("picard_c3", "c9_x4px", "klein_c7"):
        profile = preset_profile(name)
        gen = profile.classes[1].exps
        assert dim_inv_wedge3(profile, "V") == wedge3_invariants_bruteforce(
            gen, profile.level
        )


def test_cyclic_invariants_match_bruteforce_randomized():
    rng = random.Random(59)
    for _ in range(100):
        order = rng.randint(3, 15)
        dim = rng.randint(3, 12)
        gen = tuple(rng.randrange(-2 * order, 2 * order) for _ in range(dim))
        profile = cyclic_profile(order, gen)
        assert dim_inv_wedge3(profile, "V") == wedge3_invariants_bruteforce(gen, order)
        assert invariant_dim(profile, "V") == invariants_bruteforce(gen, order)
        h1 = gen + tuple((-e) % order for e in gen)
        assert dim_inv_wedge3(profile, "H1") == wedge3_invariants_bruteforce(h1, order)


def test_chow_criterion_implies_griffiths_criterion():
    profiles = [preset_profile(n) for n in ("picard_c3", "c9_x4px", "klein_c7")]
    rng = random.Random(61)
    for _ in range(60):
        order = rng.randint(3, 12)
        gen = tuple(rng.randrange(order) for _ in range(rng.randint(3, 8)))
        profiles.append(cyclic_profile(order, gen))
    for profile in profiles:
        if chow_criterion_applies(profile):
            assert griffiths_criterion_applies(profile)


def test_dihedral_genus_examples():
    assert dihedral_genus(5, 1, 2) == 4
    assert dihedral_genus(9, 1, 3) == 6
    assert dihedral_genus(12, 3, 4) == 6
    assert dihedral_genus(15, 3, 5) == 8
    with pytest.raises(DomainError):
        dihedral_genus(12, 2, 4)  # gcd(m, a, b) = 2
    with pytest.raises(DomainError):
        dihedral_genus(8, 1, 4)  # b = m/2
    with pytest.raises(DomainError):
        dihedral_genus(5, 2, 1)  # a >= b


def test_dihedral_genus_is_at_least_four():
    # 0 < a < b < m/2 bounds the genus below, so dihedral_criterion needs no
    # check that it is at least 3.
    genera = [dihedral_genus(m, a, b)
              for m in range(5, 121) for a in range(1, m) for b in range(a + 1, (m + 1) // 2)
              if math.gcd(m, math.gcd(a, b)) == 1]
    assert min(genera) == 4 and len(genera) > 10**4


def test_dihedral_profile_examples():
    profile = dihedral_profile(5, 1, 2)
    assert profile.classes[1].exps == (1, 2, 3, 4)
    assert profile.dim == 4

    profile = dihedral_profile(9, 1, 3)
    assert profile.classes[1].exps == (1, 2, 4, 5, 7, 8)
    assert profile.dim == 6


def test_dihedral_profile_dim_matches_genus_up_to_40():
    for m in range(3, 41):
        for a in range(1, m):
            for b in range(a + 1, (m - 1) // 2 + 1):
                if 2 * b >= m or math.gcd(m, math.gcd(a, b)) != 1:
                    continue
                assert dihedral_profile(m, a, b).dim == dihedral_genus(m, a, b)


def test_dihedral_vanishing_named_cases():
    assert dihedral_vanishing(5, 1, 2)
    assert dihedral_vanishing(6, 1, 2)
    assert dihedral_vanishing(9, 1, 3)
    assert dihedral_vanishing(12, 3, 4)
    assert dihedral_vanishing(15, 3, 5)
    assert not dihedral_vanishing(7, 1, 2)
    assert dihedral_witness_triple(7, 1, 2) == (1, 2, 4)


def test_epsilon_spectrum_is_the_definition_for_every_m_below_100():
    valid = 0
    for m in range(1, 100):
        for b in range(1, (m + 1) // 2):
            for a in range(1, b):
                if math.gcd(m, math.gcd(a, b)) != 1:
                    continue
                spectrum = repcrit._epsilon_spectrum(m, a, b)
                assert spectrum == epsilon_spectrum_by_definition(m, a, b), (m, a, b)
                assert dihedral_profile(m, a, b).generator == tuple(spectrum)
                valid += 1
    assert valid == 32298


def test_dihedral_witness_triple_refuses_what_dihedral_criterion_refuses():
    # a > b, gcd(m, a, b) = 2, 2b = m, and an m whose spectrum would never finish
    for m, a, b in ((7, 2, 1), (12, 2, 4), (6, 1, 3), (10**11, 1, 2)):
        with pytest.raises(DomainError):
            dihedral_criterion(m, a, b)
        with pytest.raises(DomainError):
            dihedral_witness_triple(m, a, b)


def test_dihedral_criterion_checks_its_parameters_once(monkeypatch):
    import ceresa_kit.repcrit as repcrit

    checks = []
    check = repcrit._check_dihedral_params
    monkeypatch.setattr(repcrit, "_check_dihedral_params",
                        lambda *params: checks.append(params) or check(*params))
    assert dihedral_criterion(7, 1, 2) == (6, (1, 2, 4))
    assert dihedral_criterion(9, 1, 3) == (6, None)
    assert dihedral_witness_triple(7, 1, 2) == (1, 2, 4)
    assert dihedral_vanishing(9, 1, 3)
    assert checks == [(7, 1, 2), (9, 1, 3)] * 2


def test_dihedral_vanishing_agrees_with_invariant_dimension_up_to_63():
    # m up to 63 covers every dihedral profile the benchmark's heavy calls draw.
    for m in range(3, 64):
        for a in range(1, m):
            for b in range(a + 1, (m - 1) // 2 + 1):
                if 2 * b >= m or math.gcd(m, math.gcd(a, b)) != 1:
                    continue
                if dihedral_genus(m, a, b) < 3:
                    continue
                triple_free = dihedral_witness_triple(m, a, b) is None
                assert dihedral_vanishing(m, a, b) == triple_free
                dim = dim_inv_wedge3(dihedral_profile(m, a, b), "V")
                assert triple_free == (dim == 0)


#: Cyclic generators that exercise each count of the generator path:
#: exponent 0, repeats, self-conjugate exponents (n/2), exponents with
#: 3e = 0 mod n, and levels 1, 2, multiples of 3 and levels prime to 3.
GENERATOR_EDGE_CASES = [
    (1, (0, 0, 0)),
    (2, (1, 1, 0)),
    (2, (1, 1, 1, 1)),
    (3, (0, 1, 1, 2)),
    (6, (0, 2, 2, 4, 3)),
    (9, (3, 3, 6, 1, 0)),
    (12, (0, 4, 8, 8, 6, 1)),
    (4, (2, 2, 1, 3, 0)),
    (7, (2, 2, 2, 4, 0)),
    (10, (5, 5, 0, 2, 2, 8)),
    (11, (1, 1, 2, 9, 10)),
]


def _with_generator_edge_cases(test):
    """`test` with a Hypothesis example for each of GENERATOR_EDGE_CASES."""
    for order, generator in GENERATOR_EDGE_CASES:
        test = example(cyclic_profile(order, generator))(test)
    return test


def test_cyclic_sums_match_the_class_sums_on_large_dihedral_profiles():
    rng = random.Random(67)
    checked = 0
    while checked < 40:
        m = rng.randint(33, 63)
        a = rng.randint(1, (m - 1) // 2 - 1)
        b = rng.randint(a + 1, (m - 1) // 2)
        if math.gcd(m, math.gcd(a, b)) != 1:
            continue
        profile = dihedral_profile(m, a, b)
        classes = ActionProfile(profile.group_order, profile.level, profile.classes)
        for space in ("V", "H1"):
            assert dim_inv_wedge3(profile, space) == dim_inv_wedge3(classes, space)
        assert invariant_dim(profile, "H1") == invariant_dim(classes, "H1")
        checked += 1
    # Generators with exponent 0 and repeated exponents, at levels 1 and 2,
    # at levels divisible by 3 and at levels that are not.
    for order, generator in GENERATOR_EDGE_CASES:
        profile = cyclic_profile(order, generator)
        classes = ActionProfile(profile.group_order, profile.level, profile.classes)
        for space in ("V", "H1"):
            assert dim_inv_wedge3(profile, space) == dim_inv_wedge3(classes, space)
            assert invariant_dim(profile, space) == invariant_dim(classes, space)


@pytest.mark.parametrize("order, dim, nbytes", [(1, 6, 1), (4, 4, 2)])
def test_digit_width_is_the_bit_length_of_the_digit_bound(order, dim, nbytes):
    # Every element is trivial, so the chi^3 digit of the V sum reaches its
    # bound order * dim^3 (216: 8 bits; 256: 9 bits), and that digit's own
    # bit length, in whole bytes, holds it without a carry.
    profile = ActionProfile(order, 1, (ConjClass(1, (0,) * dim),) * order)
    assert repcrit._digit_bytes(profile, dim) == nbytes
    assert dim_inv_wedge3(profile, "V") == math.comb(dim, 3)


@pytest.mark.parametrize("dim", [3, 255, 256, 300])
def test_cyclic_sums_of_an_all_zero_generator(dim):
    # Every element acts trivially, so the counts reach dim (2 dim on H1):
    # above 255 they need a second byte plane.
    for order in (6, 12, 18, 30):
        profile = cyclic_profile(order, (0,) * dim)
        assert dim_inv_wedge3(profile, "V") == math.comb(dim, 3)
        assert dim_inv_wedge3(profile, "H1") == math.comb(2 * dim, 3)
        assert invariant_dim(profile, "H1") == 2 * dim


@pytest.mark.parametrize("profile", [ActionProfile(1, 1, (ConjClass(1, ()),)),
                                     cyclic_profile(3, ())], ids=["classes", "cyclic"])
def test_a_dim_0_profile_has_no_invariants(profile):
    # Every digit bound is 0 there; a digit is still one byte wide.
    assert repcrit._digit_bytes(profile, 0) == 1
    assert [invariant_dim(profile, space) for space in ("V", "H1")] == [0, 0]
    with pytest.raises(DomainError, match=r"^exterior cube needs dim V >= 3$"):
        dim_inv_wedge3(profile, "V")


def test_the_cli_refuses_a_dim_0_profile_file(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"group_order": 1, "level": 1,
                                "classes": [{"size": 1, "exps": []}]}))
    assert cli.main(["repcrit", "--profile", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: exterior cube needs dim V >= 3\n")


def test_an_unknown_space_is_quoted_short():
    space = "x" * 3000
    profile = preset_profile("picard_c3")
    for read in (invariant_dim, dim_inv_wedge3):
        with pytest.raises(DomainError) as refusal:
            read(profile, space)
        assert str(refusal.value) == f"unknown space {quoted(space)}; expected 'V' or 'H1'"
        assert len(str(refusal.value)) < 90


def test_no_package_module_keeps_an_lru_cache():
    # A profile keeps its own evaluation, so the package needs no cache
    # with a hand-chosen bound: no function or method is wrapped in one.
    for module in pkgutil.iter_modules(ceresa_kit.__path__):
        importlib.import_module(f"ceresa_kit.{module.name}")
    cached = []
    for name, module in list(sys.modules.items()):
        if name.startswith("ceresa_kit."):
            values = [*vars(module).values()]
            values += [attr for cls in values if isinstance(cls, type) for attr in
                       vars(cls).values()]
            cached += [value for value in values
                       if callable(getattr(value, "cache_info", None))
                       and getattr(value, "__module__", None) == name]
    assert cached == []


@pytest.fixture
def evaluations(monkeypatch):
    """The profiles passed to `_group_sums` and the levels passed to
    `cyclotomic_polynomial`, one entry per call."""
    log = {"_group_sums": [], "cyclotomic_polynomial": []}
    for name, calls in log.items():
        original = getattr(repcrit, name)
        monkeypatch.setattr(repcrit, name,
                            lambda arg, calls=calls, original=original:
                            calls.append(arg) or original(arg))
    return log


def test_each_profile_is_evaluated_once_over_a_sweep(evaluations):
    profiles = [dihedral_profile(m, 1, 3) for m in range(31, 51, 2)]
    # Built, a profile is not yet evaluated: the first dimension read does it.
    assert evaluations == {"_group_sums": [], "cyclotomic_polynomial": []}
    for profile in profiles:
        holds = griffiths_criterion_applies(profile)
        assert holds == (dihedral_witness_triple(profile.level, 1, 3) is None)
        chow_criterion_applies(profile)
    # Each profile is evaluated once, for both spaces, with Phi_L once: the
    # Chow criterion's two dimensions read the evaluation the Griffiths
    # criterion made.
    assert evaluations["_group_sums"] == profiles
    assert evaluations["cyclotomic_polynomial"] == [profile.level for profile in profiles]
    # Read again, in the other order, the kept evaluations give the same
    # dimensions as a fresh, equal profile evaluates.
    dims = [dim_inv_wedge3(profile, "H1") for profile in reversed(profiles)]
    assert len(evaluations["_group_sums"]) == len(profiles)
    assert dims == [dim_inv_wedge3(dihedral_profile(profile.level, 1, 3), "H1")
                    for profile in reversed(profiles)]
    assert len(evaluations["_group_sums"]) == 2 * len(profiles)


@pytest.mark.parametrize("kind", ["cyclic", "classes"])
def test_one_repcrit_call_evaluates_its_profile_once(monkeypatch, capsys, tmp_path,
                                                     evaluations, kind):
    calls = {name: [] for name in ("dim_inv_wedge3", "invariant_dim", "_vector_to_dim")}
    for name, log in calls.items():
        original = getattr(repcrit, name)
        monkeypatch.setattr(repcrit, name,
                            lambda *args, log=log, original=original:
                            log.append(args) or original(*args))
    spec = "dihedral:63,1,5"
    if kind == "classes":  # an ActionProfile: the file lists every class
        spec = tmp_path / "dihedral.json"
        spec.write_text(json.dumps(dihedral_profile(63, 1, 5).to_json()))
    assert cli.main(["repcrit", "--profile", str(spec), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["wedge3_v_invariants"] == 600
    # One wedge^3 dimension per space and dim (H1)^G once: both criteria are
    # read off these three.  One group-sum evaluation for both spaces, and
    # Phi_63 once.
    assert [args[1] for args in calls["dim_inv_wedge3"]] == ["V", "H1"]
    assert [args[1] for args in calls["invariant_dim"]] == ["H1"]
    assert len(calls["_vector_to_dim"]) == 3
    assert len(evaluations["_group_sums"]) == 1
    assert evaluations["cyclotomic_polynomial"] == [63]


def test_the_kept_evaluation_is_not_part_of_the_value():
    for profile in (dihedral_profile(15, 1, 4),
                    profile_from_json(dihedral_profile(15, 1, 4).to_json())):
        fresh = copy.copy(profile)
        before = (repr(profile), hash(profile), profile.to_json())
        assert not hasattr(profile, "evaluation")
        assert chow_criterion_applies(profile) is False
        assert hasattr(profile, "evaluation") and not hasattr(fresh, "evaluation")
        assert (repr(profile), hash(profile), profile.to_json()) == before
        assert profile == fresh
        assert not hasattr(pickle.loads(pickle.dumps(profile)), "evaluation")


def test_primitive_dim_is_the_difference_and_refuses_a_negative_one():
    assert repcrit.primitive_dim(20, 6) == 14 and repcrit.primitive_dim(2, 2) == 0
    with pytest.raises(ProfileError, match=r"^dim \(wedge\^3 H1\)\^G = 1 < dim \(H1\)\^G = 2; "
                                           r"not a group action$"):
        repcrit.primitive_dim(1, 2)


def test_repcrit_criteria_are_the_library_criteria(capsys, tmp_path):
    files = []
    for name, profile in (("klein", preset_profile("klein_c7")),
                          ("dihedral", dihedral_profile(15, 1, 4))):
        files.append(tmp_path / f"{name}.json")  # an ActionProfile: it lists every class
        files[-1].write_text(json.dumps(profile.to_json()))
    specs = [*repcrit.PRESET_NAMES, *map(str, files)]
    specs += [f"dihedral:{m},{a},{b}" for m in range(5, 40) for b in range(2, (m + 1) // 2)
              for a in range(1, b) if math.gcd(m, math.gcd(a, b)) == 1]
    for spec in specs:
        assert cli.main(["repcrit", "--profile", spec, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        profile = repcrit.load_profile(spec)
        prim = repcrit.primitive_dim(dim_inv_wedge3(profile, "H1"), invariant_dim(profile, "H1"))
        library = (chow_criterion_applies(profile), griffiths_criterion_applies(profile), prim)
        assert (document["criterion_a"], document["criterion_b"],
                document["prim3_invariants"]) == library, spec
    assert all(isinstance(repcrit.load_profile(str(path)), ActionProfile) for path in files)
    assert len(specs) == 3 + 2 + 1846


def test_a_total_shorter_than_phi_is_its_own_remainder(monkeypatch, evaluations):
    divisions, original = [], repcrit.monic_divmod
    monkeypatch.setattr(repcrit, "monic_divmod",
                        lambda *args: divisions.append(args) or original(*args))
    profile = dihedral_profile(63, 1, 5)
    assert chow_criterion_applies(profile) is False and dim_inv_wedge3(profile, "V") == 600
    # Every cyclic total has length 1, so no division; Phi_63 is still built once.
    assert divisions == [] and evaluations["cyclotomic_polynomial"] == [63]
    klein = profile_from_json(preset_profile("klein_c7").to_json())
    assert dim_inv_wedge3(klein, "V") == 1 and len(divisions) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 255) | st.integers(0, 2**32 - 1), min_size=1, max_size=40),
       st.integers(1, 4))
def test_pack_is_kronecker_substitution(counts, nbytes):
    counts = [c % 256**nbytes for c in counts]  # each count fits its digit
    packed = sum(c << 8 * nbytes * i for i, c in enumerate(counts))
    assert repcrit._pack(counts, nbytes) == packed


def test_profile_json_round_trip():
    profile = preset_profile("picard_c3")
    classes = ActionProfile(profile.group_order, profile.level, profile.classes)
    assert profile_from_json(profile.to_json()) == classes
    with pytest.raises(ProfileError):
        profile_from_json({"group_order": 3, "classes": []})
    # Only JSON integers: int() would read 1.9 as 1 and true as 1.
    data = profile.to_json()
    for key, value in (("group_order", 3.0), ("level", "3"), ("level", True),
                       ("group_order", 0), ("level", -3), ("classes", [])):
        with pytest.raises(ProfileError):
            profile_from_json({**data, key: value})
    for cls in ({"size": True, "exps": [1, 1, 2]}, {"size": 1, "exps": [1.9, 1.2, 2]},
                {"size": 1.0, "exps": [1, 1, 2]}, {"size": 1, "exps": [1, 1, "2"]},
                {"size": 0, "exps": [1, 1, 2]}):
        with pytest.raises(ProfileError):
            profile_from_json({**data, "classes": [data["classes"][0], cls, data["classes"][2]]})


def test_preset_names():
    assert preset_profile("dihedral:5,1,2") == dihedral_profile(5, 1, 2)
    with pytest.raises(DomainError):
        preset_profile("nonsense")
    with pytest.raises(DomainError):
        preset_profile("dihedral:5,1")
    # The parameters are integer literals: a sign and ASCII digits, as in `rat`.
    assert preset_profile("dihedral: 5,+1,2 ") == dihedral_profile(5, 1, 2)
    for name in ("dihedral:\uff15,1,2", "dihedral:1_5,1,2", "dihedral:5,1,\u0662",
                 "dihedral:5,1.0,2"):
        with pytest.raises(DomainError, match=r"^expected dihedral:m,a,b, got "):
            preset_profile(name)


PICARD_JSON = json.dumps(cyclic_profile(3, (1, 1, 2)).to_json())


@pytest.mark.parametrize("source, text, expected", [
    ("klein_c7", None, cyclic_profile(7, (1, 2, 4))),
    ("dihedral:9,1,3", None, dihedral_profile(9, 1, 3)),
    ("c3.json", PICARD_JSON, profile_from_json(json.loads(PICARD_JSON))),
    ("missing.json", None, "no such preset or profile file: 'missing.json'"),
    (".", None, "cannot read profile file '.': Is a directory"),
    ("long.json", PICARD_JSON + " ",
     f"profile file 'long.json' has more than {len(PICARD_JSON)} characters"),
], ids=["preset", "dihedral", "file", "missing", "directory", "over-cap"])
def test_load_profile_reads_each_source(source, text, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(repcrit, "MAX_PROFILE_CHARS", len(PICARD_JSON))  # c3.json is at the cap
    if text is not None:
        Path(source).write_text(text)
    if isinstance(expected, str):
        with pytest.raises(DomainError) as info:
            repcrit.load_profile(source)
        assert str(info.value) == expected
    else:
        assert repcrit.load_profile(source) == expected


def test_importing_the_package_loads_no_json():
    # load_profile imports json where it decodes a file, not at import time.
    src = str(Path(ceresa_kit.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import ceresa_kit; "
            "print('json' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


@st.composite
def cyclic_profiles(draw):
    order = draw(st.integers(1, 40))
    gen = draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=8))
    return cyclic_profile(order, tuple(gen))


def _dihedral_group_action(n: int, irreps: list) -> ActionProfile:
    """The dihedral group of order 2n acting by a direct sum of irreducibles.

    Eigenvalue exponents are at level 2n.  Rotation classes {r^k, r^-k} have
    size 2 (size 1 for k = 0 and k = n/2); the reflections form one class of
    size n for odd n, two classes {s r^even}, {s r^odd} of size n/2 for even
    n.  An irreducible is "1" (trivial), "sign" (-1 on reflections),
    ("psi", eps) for even n (r -> -1, s -> eps) or ("rho", j), the
    two-dimensional representation with r -> diag(z^j, z^-j), z = exp(2 pi i/n).
    """
    level = 2 * n
    rotations = [(1 if 2 * k in (0, n) else 2, k) for k in range(n // 2 + 1)]
    reflections = [(n, 0)] if n % 2 else [(n // 2, 0), (n // 2, 1)]

    def rotation_exps(irrep, k):
        if irrep in ("1", "sign"):
            return (0,)
        if irrep[0] == "psi":
            return ((n * k) % level,)
        return ((2 * irrep[1] * k) % level, (-2 * irrep[1] * k) % level)

    def reflection_exps(irrep, parity):
        if irrep == "1":
            return (0,)
        if irrep == "sign":
            return (n,)
        if irrep[0] == "psi":
            return (0 if irrep[1] * (-1) ** parity == 1 else n,)
        return (0, n)

    classes = [ConjClass(size, sum((rotation_exps(i, k) for i in irreps), ()))
               for size, k in rotations]
    classes += [ConjClass(size, sum((reflection_exps(i, p) for i in irreps), ()))
                for size, p in reflections]
    return ActionProfile(2 * n, level, tuple(classes))


@st.composite
def dihedral_group_actions(draw):
    n = draw(st.integers(2, 10))
    choices = ["1", "sign"] + [("rho", j) for j in range(1, (n + 1) // 2)]
    if n % 2 == 0:
        choices += [("psi", 1), ("psi", -1)]
    irreps = draw(st.lists(st.sampled_from(choices), min_size=2, max_size=5))
    profile = _dihedral_group_action(n, irreps)
    if profile.dim < 3:
        irreps.append("1")
        profile = _dihedral_group_action(n, irreps)
    return profile, irreps.count("1")


@st.composite
def arbitrary_profiles(draw):
    # Valid shape (identity class, sizes summing to the order), but the
    # classes are random, so most are not group actions.
    level = draw(st.integers(1, 24))
    dim = draw(st.integers(3, 6))
    exps = st.lists(st.integers(0, level - 1), min_size=dim, max_size=dim).map(tuple)
    others = draw(st.lists(st.tuples(st.integers(1, 4), exps), max_size=5))
    classes = (ConjClass(1, (0,) * dim),) + tuple(ConjClass(s, e) for s, e in others)
    return ActionProfile(sum(cls.size for cls in classes), level, classes)


def _assert_same_outcome(kernel, reference, profile, space):
    try:
        expected = reference(profile, space)
    except ProfileError:
        with pytest.raises(ProfileError):
            kernel(profile, space)
        return
    assert kernel(profile, space) == expected


def _assert_kernel_matches_cyclotomic_reference(profile):
    for space in ("V", "H1"):
        if profile.dim < 3:
            with pytest.raises(DomainError):
                dim_inv_wedge3(profile, space)
        else:
            _assert_same_outcome(dim_inv_wedge3, wedge3_dim_cyclotomic, profile, space)
        _assert_same_outcome(invariant_dim, invariant_dim_cyclotomic, profile, space)


@settings(max_examples=40, deadline=None)
@given(cyclic_profiles())
@example(cyclic_profile(4, (0,)))
@example(cyclic_profile(6, (3, 0)))
@_with_generator_edge_cases
def test_kernel_matches_cyclotomic_reference_on_cyclic_profiles(profile):
    _assert_kernel_matches_cyclotomic_reference(profile)
    # The generator path against the class sums over the same elements.
    classes = ActionProfile(profile.group_order, profile.level, profile.classes)
    for space in ("V", "H1"):
        assert invariant_dim(profile, space) == invariant_dim(classes, space)
        if profile.dim < 3:
            with pytest.raises(DomainError):
                dim_inv_wedge3(classes, space)
        else:
            assert dim_inv_wedge3(profile, space) == dim_inv_wedge3(classes, space)


@settings(max_examples=40, deadline=None)
@given(dihedral_group_actions())
def test_kernel_matches_cyclotomic_reference_on_dihedral_groups(case):
    profile, trivial_summands = case
    _assert_kernel_matches_cyclotomic_reference(profile)
    assert invariant_dim(profile, "V") == trivial_summands


@settings(max_examples=80, deadline=None)
@given(arbitrary_profiles())
def test_kernel_matches_cyclotomic_reference_on_arbitrary_profiles(profile):
    _assert_kernel_matches_cyclotomic_reference(profile)
