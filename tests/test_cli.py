from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ceresa_kit import (
    DepressedQuartic,
    PicardCurve,
    WeierstrassCurve,
    bielliptic_consistency,
    ceresa,
    cli,
    decide,
    family_generate,
    invariants,
    repcrit,
    torsion_order_q,
)
from ceresa_kit.cli import main
from ceresa_kit.errors import DomainError, clipped, quoted
from ceresa_kit.exactmath import MAX_LITERAL_CHARS, max_literal_chars
from ceresa_kit.repcrit import ActionProfile, ConjClass


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_invariants_text_and_json(capsys):
    code, out, _ = run(capsys, "invariants", "-a", "1", "-b", "0", "-c", "1")
    assert code == 0
    assert out.splitlines() == ["I = 13", "J = 70", "disc = 144"]
    payload = run_json(capsys, "invariants", "-a", "1", "-b", "0", "-c", "1",
                       "--format", "json")
    assert payload == {"I": "13", "J": "70", "disc": "144"}


def test_negative_flag_values(capsys):
    expected = {"I": "0", "J": "13797", "disc": "-7050267"}
    for argv in (
        ["invariants", "-a", "-12", "-b", "1", "-c", "-12", "--format", "json"],
        ["invariants", "-a=-12/1", "-b", "1", "-c=-12", "--format", "json"],
    ):
        assert run_json(capsys, *argv) == expected
    # A decimal may start "-." after a space, as argparse reads it by itself.
    assert run(capsys, "invariants", "-a", "-.5", "-b", "0", "-c", "1") == run(
        capsys, "invariants", "-a", "-1/2", "-b", "0", "-c", "1")


def test_a_value_after_any_flag_may_start_with_a_minus_sign(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = ["scan", "--a-range", "-2:2", "--b-range", "-1", "--c-range", "-1:1"]
    code, out, err = run(capsys, *argv, "--out", "-1.csv")
    assert (code, out, err) == (0, "", "")
    assert run(capsys, *argv) == (0, (tmp_path / "-1.csv").read_text(), "")


def test_decide_json_example(capsys):
    payload = run_json(capsys, "decide", "-a", "-12", "-b", "1", "-c", "-12",
                       "--format", "json")
    assert payload["chow"] == {"torsion": True, "point_order": 3}
    assert payload["griffiths"] == "torsion"
    assert payload["curve"] == {"a": "-12", "b": "1", "c": "-12"}
    assert payload["P"] == {"x": "0", "y": "55188"}


def test_decide_text(capsys):
    code, out, _ = run(capsys, "decide", "-a", "1", "-b", "0", "-c", "1")
    assert code == 0
    assert "chow: non-torsion" in out
    assert "griffiths: torsion" in out


def test_torsion_subcommand(capsys):
    payload = run_json(capsys, "torsion", "-A", "0", "-B", "-432", "-x", "12",
                       "-y", "36", "--format", "json")
    assert payload["torsion"] is True and payload["order"] == 3
    payload = run_json(capsys, "torsion", "-A", "0", "-B", "-62208", "-x", "52",
                       "-y", "280", "--format", "json")
    assert payload["torsion"] is False and payload["order"] is None
    code, _, err = run(capsys, "torsion", "-A", "0", "-B", "1", "-x", "5", "-y", "5")
    assert code == 2 and "error" in err


def test_family_subcommand(capsys):
    payload = run_json(capsys, "family", "-I", "3", "-J", "9", "-t", "0",
                       "--format", "json")
    assert payload["curve"] == {"a": "0", "b": "1/9", "c": "1/36"}
    assert payload["disc"] == "1/729"
    code, _, err = run(capsys, "family", "-I", "3", "-J", "10", "-t", "0")
    assert code == 2


def test_e0_torsion_subcommand(capsys):
    payload = run_json(capsys, "e0-torsion", "--format", "json")
    assert payload["points"] == ["infinity", {"x": "3", "y": "-9"}, {"x": "3", "y": "9"}]


def test_bielliptic_subcommand(capsys):
    payload = run_json(capsys, "bielliptic", "-a", "1", "-c", "1", "--format", "json")
    assert payload == {"a": "1", "c": "1", "consistent": True}
    code, _, err = run(capsys, "bielliptic", "-a", "2", "-c", "1")
    assert code == 2


def test_repcrit_preset_and_file(capsys, tmp_path):
    payload = run_json(capsys, "repcrit", "--profile", "picard_c3",
                       "--format", "json")
    assert payload["criterion_a"] is False and payload["criterion_b"] is True
    assert payload["wedge3_v_invariants"] == 0
    assert payload["wedge3_h1_invariants"] == 2 and payload["h1_invariants"] == 0

    payload = run_json(capsys, "repcrit", "--profile", "c9_x4px",
                       "--criterion", "a", "--format", "json")
    assert payload["criterion_a"] is True and "criterion_b" not in payload

    profile_file = tmp_path / "profile.json"
    profile_file.write_text(json.dumps({
        "group_order": 3,
        "level": 3,
        "classes": [
            {"size": 1, "exps": [0, 0, 0]},
            {"size": 1, "exps": [1, 1, 2]},
            {"size": 1, "exps": [2, 2, 1]},
        ],
    }))
    payload = run_json(capsys, "repcrit", "--profile", str(profile_file),
                       "--format", "json")
    assert payload["criterion_b"] is True

    code, _, err = run(capsys, "repcrit", "--profile", "missing.json")
    assert code == 2

    truncated = json.loads(profile_file.read_text())
    truncated["classes"][1]["exps"] = [1.9, 1.2, 2]  # not int(1.9) == 1
    profile_file.write_text(json.dumps(truncated))
    code, out, err = run(capsys, "repcrit", "--profile", str(profile_file))
    assert code == 2 and out == "" and "malformed profile JSON" in err


def test_repcrit_dihedral_preset(capsys):
    payload = run_json(capsys, "repcrit", "--profile", "dihedral:5,1,2",
                       "--format", "json")
    assert payload["dim_v"] == 4 and payload["criterion_b"] is True


def test_repcrit_cyclic_presets_never_list_classes(capsys, monkeypatch):
    # Cyclic profiles are evaluated from their generator: the n classes are
    # never built on the CLI path.
    built, original = [], repcrit.preset_profile
    reads, classes = [], repcrit.CyclicProfile.classes

    def preset_profile(name):
        built.append(original(name))
        return built[-1]

    def recorded_classes(profile):
        reads.append(profile)
        return classes.fget(profile)

    monkeypatch.setattr(repcrit, "preset_profile", preset_profile)
    monkeypatch.setattr(repcrit.CyclicProfile, "classes", property(recorded_classes))
    for name in (*repcrit.PRESET_NAMES, "dihedral:61,1,3"):
        payload = run_json(capsys, "repcrit", "--profile", name, "--format", "json")
        assert payload["dim_v"] == built[-1].dim
        assert {"criterion_a", "criterion_b", "prim3_invariants"} <= payload.keys()
    assert len(built) == 4 and reads == []
    assert len(built[0].classes) == 3 and reads == [built[0]]  # the recorder is live


def test_dihedral_text_output(capsys):
    code, out, _ = run(capsys, "dihedral", "-m", "7", "-a", "1", "-b", "2")
    assert code == 0
    assert out.strip() == "genus 6; (⋀³V)^{D_7} ≠ 0: criterion fails (triple 1+2+4)"
    code, out, _ = run(capsys, "dihedral", "-m", "5", "-a", "1", "-b", "2")
    assert out.strip() == "genus 4; (⋀³V)^{D_5} = 0: criterion holds"
    payload = run_json(capsys, "dihedral", "-m", "9", "-a", "1", "-b", "3",
                       "--format", "json")
    assert payload == {"m": 9, "a": 1, "b": 3, "genus": 6, "vanishing": True,
                       "witness_triple": None}


def level_profile(tmp_path, level: int) -> str:
    path = tmp_path / f"level{level}.json"
    path.write_text(json.dumps({
        "group_order": 1, "level": level, "classes": [{"size": 1, "exps": [0, 0, 0]}],
    }))
    return str(path)


def test_level_above_the_cap_is_refused_before_anything_is_built(capsys, tmp_path):
    huge = 10**11
    for argv in (("dihedral", "-m", str(huge), "-a", "1", "-b", "3"),
                 ("repcrit", "--profile", f"dihedral:{huge},1,3"),
                 ("repcrit", "--profile", level_profile(tmp_path, 10**12))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert err.count("\n") == 1 and f"above the level cap {repcrit.MAX_LEVEL}" in err


def test_level_at_the_cap_is_accepted(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(repcrit, "MAX_LEVEL", 12)
    for m in (12, 13):
        code, _, err = run(capsys, "dihedral", "-m", str(m), "-a", "1", "-b", "5")
        assert code == (0 if m == 12 else 2)
        code, _, err = run(capsys, "repcrit", "--profile", f"dihedral:{m},1,5")
        assert code == (0 if m == 12 else 2)
        code, _, err = run(capsys, "repcrit", "--profile", level_profile(tmp_path, m))
        assert code == (0 if m == 12 else 2)
    assert err.endswith("level 13 is above the level cap 12\n")
    assert repcrit.cyclic_profile(12, (1, 2, 3)).level == 12
    with pytest.raises(DomainError, match="cyclic group order 13 is above the level cap 12"):
        repcrit.cyclic_profile(13, (1, 2, 3))


def test_profile_file_at_the_character_cap_is_accepted(capsys, tmp_path, monkeypatch):
    path = Path(level_profile(tmp_path, 3))
    monkeypatch.setattr(repcrit, "MAX_PROFILE_CHARS", len(path.read_text()))
    code, _, _ = run(capsys, "repcrit", "--profile", str(path))
    assert code == 0
    path.write_text(path.read_text() + " ")  # still valid JSON, one character over
    code, out, err = run(capsys, "repcrit", "--profile", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: profile file {quoted(str(path))} has more than "
                   f"{repcrit.MAX_PROFILE_CHARS} characters\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_profile_file_is_refused_promptly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "repcrit", "--profile", "/dev/zero")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == f"error: profile file '/dev/zero' has more than {repcrit.MAX_PROFILE_CHARS} characters\n"


def test_invariant_average_in_an_error_is_exact_when_short_and_cut_when_long(
        capsys, tmp_path):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"group_order": 3, "level": 2, "classes": [
        {"size": 1, "exps": [0, 0, 0]}, {"size": 2, "exps": [0, 0, 1]}]}))
    code, out, err = run(capsys, "repcrit", "--profile", str(short))
    assert (code, out) == (2, "")
    assert err == "error: invariant average -1/3 is not a nonnegative integer\n"
    long = Fraction(-(10**60) - 1, 3)
    assert clipped(long) == str(long)[:40] + "…" == "-1" + "0" * 38 + "…"
    assert clipped(Fraction(-1, 3)) == "-1/3"


def test_group_order_above_the_cap_is_refused_before_anything_is_built(
        capsys, tmp_path, monkeypatch):
    cap = repcrit.MAX_GROUP_ORDER
    refusal = f"error: group order is above the cap {cap}\n"
    # An order with more digits than CPython converts to a string.
    order = 10**4299
    long = tmp_path / "long.json"
    long.write_text(json.dumps({"group_order": order, "level": 2, "classes": [
        {"size": 1, "exps": [0] * 30}, {"size": order - 1, "exps": [1] * 30}]}))
    assert run(capsys, "repcrit", "--profile", str(long)) == (2, "", refusal)
    # An 8,119-byte file whose order would set the digit width of every
    # product: the kernel never runs.
    order = 10**4000
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"group_order": order, "level": 10**4, "classes": [
        {"size": 1, "exps": [0, 0, 0]}, {"size": order - 1, "exps": [9997, 9998, 9999]}]}))
    sums = []
    monkeypatch.setattr(repcrit, "_group_sums", lambda *args: sums.append(args))
    assert run(capsys, "repcrit", "--profile", str(wide)) == (2, "", refusal)
    assert sums == []
    identity = ConjClass(1, (0, 0, 0))
    assert ActionProfile(cap, 1, (identity, ConjClass(cap - 1, (0, 0, 0)))).group_order == cap
    with pytest.raises(DomainError, match=f"^group order is above the cap {cap}$"):
        ActionProfile(cap + 1, 1, (identity, ConjClass(cap, (0, 0, 0))))


def test_class_work_above_the_cap_is_refused_before_the_class_sums(
        capsys, tmp_path, monkeypatch):
    # All 10^4 elements of a cyclic group listed at dim 62: a 3.9 MB file
    # whose class sums would run for about half an hour.
    n = 10**4
    rng = random.Random(62)
    generator = [rng.randrange(n) for _ in range(62)]
    listing = tmp_path / "listing.json"
    listing.write_text(json.dumps({"group_order": n, "level": n, "classes": [
        {"size": 1, "exps": [k * e % n for e in generator]} for k in range(n)]}))
    sums = []
    monkeypatch.setattr(repcrit, "_group_sums", lambda *args: sums.append(args))
    assert run(capsys, "repcrit", "--profile", str(listing)) == (
        2, "", f"error: {n} classes at level {n} are above the cap "
               f"{repcrit.MAX_CLASS_WORK} on classes * level\n")
    assert sums == []
    identity, flip = ConjClass(1, (0, 0, 0)), ConjClass(1, (3, 3, 3))
    monkeypatch.setattr(repcrit, "MAX_CLASS_WORK", 12)
    assert ActionProfile(2, 6, (identity, flip)).level == 6
    monkeypatch.setattr(repcrit, "MAX_CLASS_WORK", 11)
    with pytest.raises(DomainError,
                       match=r"^2 classes at level 6 are above the cap 11 on classes \* level$"):
        ActionProfile(2, 6, (identity, flip))


def test_strata_subcommand(capsys):
    payload = run_json(capsys, "strata", "--group", "C9", "--format", "json")
    assert payload["chow_torsion"] is True
    payload = run_json(capsys, "strata", "--format", "json")
    assert len(payload["strata"]) == 13
    payload = run_json(capsys, "strata", "--check", "--format", "json")
    assert payload == {"consistent": True}
    code, out, _ = run(capsys, "strata", "--check")
    assert out.strip() == "consistency: ok"
    code, _, err = run(capsys, "strata", "--group", "C5")
    assert code == 2


def test_scan_csv_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "scan", "--a-range", "-12", "--b-range", "1:3",
                       "--c-range", "-12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,c,I,J,disc,verdict,point_order"
    assert len(lines) == 4
    assert all(line.endswith("torsion,3") for line in lines[1:])

    out_file = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--a-range", "-12", "--b-range", "1:3",
                     "--c-range", "-12", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().splitlines() == lines


def test_scan_byte_identical_across_thread_counts(capsys, tmp_path):
    blobs = []
    for threads in (1, 4, 8):
        path = tmp_path / f"scan_{threads}.csv"
        code, _, _ = run(capsys, "scan", "--a-range", "-2:2", "--b-range", "-2:2",
                         "--c-range", "-2:2", "--threads", str(threads),
                         "--out", str(path))
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_scan_rational_ranges(capsys):
    code, out, _ = run(capsys, "scan", "--a-range", "0:1:1/2", "--b-range", "1",
                       "--c-range", "1,3/2")
    assert code == 0
    rows = [line.split(",")[:3] for line in out.splitlines()[1:]]
    assert rows == [
        ["0", "1", "1"], ["0", "1", "3/2"],
        ["1/2", "1", "1"], ["1/2", "1", "3/2"],
        ["1", "1", "1"], ["1", "1", "3/2"],
    ]


def test_scan_range_with_a_tiny_step_is_refused_before_any_value(capsys):
    # 1/3 + k/7...7 stays below 390 digits, so only the point count can
    # stop this range: it has about 5 * 10^299 values.
    tiny = "1/" + "7" * 300
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "--a-range", f"1/3:1:{tiny}",
                         "--b-range", "0", "--c-range", "1")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == f"error: scan grid has more than {cli.MAX_SCAN_POINTS} points\n"
    # An empty axis makes the grid empty, however long the other axes are.
    code, out, err = run(capsys, "scan", "--a-range", f"1/3:1:{tiny}",
                         "--b-range", "1:0", "--c-range", "1")
    assert (code, out, err) == (2, "", "error: empty scan grid\n")


def test_scan_grid_at_the_cap_is_accepted(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 6)
    argv = ["scan", "--a-range", "0:1:1/2", "--b-range", "1", "--c-range", "1,3/2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(out.splitlines()) == 1 + 6
    # a descending range counts the same way
    code, out, _ = run(capsys, *argv[:2], "1:0:-1/2", *argv[3:])
    assert code == 0 and len(out.splitlines()) == 1 + 6
    code, out, err = run(capsys, *argv[:2], "0:3/2:1/2", *argv[3:])
    assert (code, out) == (2, "") and err == "error: scan grid has more than 6 points\n"


def test_family_refuses_values_beyond_the_int_to_string_limit(capsys):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int-to-string conversion is unlimited")

    # At I = 3, J = 9, g(t) = (3t^3 - 3t - 1)/3 and disc = g^6, the longest
    # printed value: find the largest integer t whose disc numerator prints.
    def disc_numerator(t):
        return (3 * t**3 - 3 * t - 1) ** 6

    lo, hi = 1, 10 ** (limit // 18 + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if disc_numerator(mid) < 10**limit else (lo, mid)
    assert len(str(disc_numerator(lo))) == limit
    code, out, err = run(capsys, "family", "-I", "3", "-J", "9", "-t", str(lo))
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(f", disc = {disc_numerator(lo)}/729")
    payload = run_json(capsys, "family", "-I", "3", "-J", "9", "-t", str(lo),
                       "--format", "json")
    assert payload["disc"] == f"{disc_numerator(lo)}/729"
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "family", "-I", "3", "-J", "9", "-t", str(hi),
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (f"error: the family member has a value of more than {limit} "
                       "digits, beyond Python's int-to-string limit; choose a shorter t\n")


def test_exit_codes(capsys):
    code, _, err = run(capsys, "decide", "-a", "0", "-b", "0", "-c", "0")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "bogus")
    assert code == 1 and "usage" in err
    code, _, err = run(capsys, "decide", "-a", "1")
    assert code == 1
    code, _, err = run(capsys, "scan", "--a-range", "1:0", "--b-range", "1",
                       "--c-range", "1")
    assert code == 2  # empty grid
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_exponent_literals_exit_with_domain_error(capsys):
    code, out, err = run(capsys, "decide", "-a", "1e500000", "-b", "0", "-c", "1")
    assert code == 2 and "exponent" in err and out == ""
    code, _, err = run(capsys, "scan", "--a-range", "0:1E3", "--b-range", "1",
                       "--c-range", "1")
    assert code == 2 and "exponent" in err


@pytest.mark.parametrize("argv", [
    ["invariants", "-a", "1_000", "-b", "0", "-c", "1"],
    ["decide", "-a", "\uff11\uff12", "-b", "0", "-c", "1"],
    ["invariants", "-a", "\u0661\u0662", "-b", "0", "-c", "1"],
    ["scan", "--a-range", "0:1_0:5", "--b-range", "1", "--c-range", "1"],
])
def test_literals_outside_the_ascii_grammar_exit_with_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid rational literal ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["dihedral", "-m", "\uff11\uff15", "-a", "1", "-b", "3"],
    ["dihedral", "-m", "1_5", "-a", "1", "-b", "3"],
    ["dihedral", "-m=15", "-a", "1", "-b", "\u0663"],
    ["scan", "--a-range", "0", "--b-range", "1", "--c-range", "1", "--threads", "1_0"],
])
def test_integer_flags_outside_the_ascii_grammar_are_usage_errors(capsys, argv):
    assert cli._read_plain(argv[0], argv[1:]) is None  # handed to argparse
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("usage error: argument ")


@pytest.mark.parametrize("profile", ["dihedral:\uff11\uff15,1,3", "dihedral:1_5,1,3"])
def test_dihedral_presets_outside_the_ascii_grammar_exit_with_domain_error(capsys, profile):
    code, out, err = run(capsys, "repcrit", "--profile", profile)
    assert (code, out, err) == (2, "", f"error: expected dihedral:m,a,b, got {quoted(profile)}\n")


def test_literal_cap_boundary_on_invariants(capsys):
    cap = MAX_LITERAL_CHARS
    # Pairwise coprime denominators of cap - 2 digits give disc about the
    # most digits that literals of cap characters can: it must still print.
    a = "1/" + "9" * (cap - 2)
    b = "1/" + "9" * (cap - 3) + "7"
    c = "1/" + "9" * (cap - 3) + "1"
    assert len(a) == len(b) == len(c) == cap
    expected = invariants(DepressedQuartic(a, b, c))
    assert len(str(expected.disc.denominator)) > 4200
    payload = run_json(capsys, "invariants", "-a", a, "-b", b, "-c", c, "--format", "json")
    assert {k: Fraction(v) for k, v in payload.items()} == {
        "I": expected.I, "J": expected.J, "disc": expected.disc}
    code, out, _ = run(capsys, "invariants", "-a", a, "-b", b, "-c", c)
    assert code == 0 and out.splitlines()[2] == f"disc = {expected.disc}"
    for literal, argv in (
        ("1" + "0" * cap, ["-a", "1" + "0" * cap, "-b", "1", "-c", "1"]),
        ("-" + "1" * cap, ["-a", "1", "-b", "1", "-c", "-" + "1" * cap]),
    ):
        code, out, err = run(capsys, "invariants", *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: rational literal {literal[:40]!r}… "
                       f"is longer than {cap} characters\n")


def test_literal_cap_follows_a_lowered_int_to_string_limit():
    # 640 is the lowest limit CPython accepts; the cap is then (640 - 6) // 11.
    cap, env = 57, {"PYTHONINTMAXSTRDIGITS": "640"}
    a = "1/" + "9" * (cap - 2)
    b = "1/" + "9" * (cap - 3) + "7"
    c = "1/" + "9" * (cap - 3) + "1"
    step = "1" + "0" * 27 + "/2" + "0" * 26 + "1"
    assert {len(a), len(b), len(c), len(step)} == {cap}
    for argv in (["invariants", "-a", a, "-b", b, "-c", c],
                 ["decide", "-a", a, "-b", b, "-c", c],
                 ["decide", "-a", "9" * cap, "-b", "-" + "9" * (cap - 1), "-c", b,
                  "--format", "json"],
                 ["scan", "--a-range", a, "--b-range", b, "--c-range", c]):
        done = run_child(argv, subprocess.PIPE, **env)
        assert (done.returncode, done.stderr) == (0, b"") and done.stdout
    # One character over the cap, or a range value over it, is a domain error.
    for argv in (["invariants", "-a", a + "9", "-b", b, "-c", c],
                 ["decide", "-a", "1", "-b", "0", "-c", "9" * (cap + 1), "--format", "json"],
                 ["scan", "--a-range", f"{a}:1:{step}", "--b-range", "1", "--c-range", "1"]):
        done = run_child(argv, subprocess.PIPE, **env)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(b"error: ") and done.stderr.count(b"\n") == 1
        assert f"than {cap} ".encode() in done.stderr


def test_oversized_literals_exit_with_a_short_domain_error(capsys):
    huge = "1" + "0" * 1100  # disc would exceed Python's int-to-string limit
    for command in ("invariants", "decide"):
        code, out, err = run(capsys, command, "-a", huge, "-b", "1", "-c", "1")
        assert (code, out) == (2, "") and "longer than" in err
    code, out, err = run(capsys, "decide", "-a", "1" * 5001, "-b", "1", "-c", "1")
    assert (code, out) == (2, "") and len(err) < 120
    # A range value must fit the same bound as a literal: lo + step has a
    # denominator of 421 digits although every literal has at most 232 chars.
    lo, step = Fraction(1, 2**700), Fraction(1, 3**440)
    hi = f"0.{math.ceil((lo + 3 * step / 2) * 10**230):0230d}"
    code, out, err = run(capsys, "scan", "--a-range", f"{lo}:{hi}:{step}",
                         "--b-range", "0", "--c-range", "1")
    assert (code, out) == (2, "") and "more than 390 digits" in err and len(err) < 140
    code, out, err = run(capsys, "repcrit", "--profile", "dihedral:1" + "0" * 5000 + ",1,3")
    assert (code, out) == (2, "") and len(err) < 120


def test_profile_file_with_an_oversized_integer_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"group_order": 1' + "0" * 5000 + ', "level": 1, "classes": []}')
    code, out, err = run(capsys, "repcrit", "--profile", str(path))
    assert (code, out) == (2, "") and err.startswith("error: invalid profile JSON in ")


def test_profile_file_nested_too_deep_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "repcrit", "--profile", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid profile JSON in {quoted(str(path))}: ")
    assert len(err.splitlines()) == 1


def test_json_outputs_are_valid_json(capsys):
    fixtures = [
        ["invariants", "-a", "1", "-b", "2", "-c", "3"],
        ["decide", "-a", "1", "-b", "0", "-c", "1"],
        ["torsion", "-A", "0", "-B", "1", "-x", "2", "-y", "3"],
        ["family", "-I", "3", "-J", "9", "-t", "2"],
        ["e0-torsion"],
        ["bielliptic", "-a", "1", "-c", "1"],
        ["repcrit", "--profile", "klein_c7"],
        ["dihedral", "-m", "12", "-a", "3", "-b", "4"],
        ["strata"],
    ]
    for argv in fixtures:
        payload = run_json(capsys, *argv, "--format", "json")
        assert isinstance(payload, (dict, list))


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_single_command_parser_matches_full_parser(capsys):
    full = _subparsers(cli.build_parser())
    assert [row[0] for row in cli._COMMANDS] == list(full)
    for name, subparser in full.items():
        code, out, err = run(capsys, name, "--help")
        assert code == 0 and err == ""
        assert out == subparser.format_help()
    full_parser = cli.build_parser()
    for argv in (["bogus"], [], ["decide", "-a", "1"]):
        with pytest.raises(cli.UsageError) as expected:
            full_parser.parse_args(argv)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"usage error: {expected.value}\n" + full_parser.format_usage()


def test_scan_out_to_an_unwritable_path_is_a_domain_error(capsys, tmp_path):
    argv = ["scan", "--a-range", "0", "--b-range", "0", "--c-range", "1"]
    for path in (tmp_path / "missing" / "x.csv", tmp_path):  # no parent; a directory
        with pytest.raises(OSError) as expected:
            open(path, "w")
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {quoted(str(path))}: {expected.value.strerror}\n"


def test_a_nul_byte_in_a_path_is_a_domain_error(capsys):
    # open() refuses such a path with ValueError; a command line cannot carry one.
    argv = ["scan", "--a-range", "0", "--b-range", "0", "--c-range", "1", "--out", "a\x00b"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: cannot write 'a\\x00b': embedded null byte\n")
    code, out, err = run(capsys, "repcrit", "--profile", "a\x00b")
    assert (code, out, err) == (
        2, "", "error: cannot read profile file 'a\\x00b': embedded null byte\n")


def test_scan_out_to_an_unwritable_path_decides_no_point(capsys, monkeypatch, tmp_path):
    calls = []
    original = ceresa.decide
    monkeypatch.setattr(ceresa, "decide", lambda curve: calls.append(curve) or original(curve))
    argv = ["scan", "--a-range", "-2:2", "--b-range", "-2:2", "--c-range", "1:2"]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (2, "") and err.startswith("error: cannot write ")
    assert calls == []
    # The same grid, written where it can be, decides each smooth point once.
    path = tmp_path / "x.csv"
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 50
    assert len(calls) == sum(not row.endswith(",skipped,") for row in rows) > 0


def test_scan_stops_quietly_when_the_reader_closes_the_pipe():
    # As `scan ... | head -1`: the reader takes the header and goes.
    src = str(Path(ceresa.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", "import sys; from ceresa_kit.cli import main; sys.exit(main())",
            "scan", "--a-range", "-10:10", "--b-range", "-10:10", "--c-range", "-10:10"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as child:
        assert child.stdout.readline() == b"a,b,c,I,J,disc,verdict,point_order\n"
        child.stdout.close()
        start = time.perf_counter()
        assert child.wait(timeout=60) == 0
        assert child.stderr.read() == b""
    # Deciding all 9,261 points takes over 10 s; it stops after a few hundred.
    assert time.perf_counter() - start < 4


# One valid call of each subcommand, in the order of `cli._COMMANDS`.
ONE_CALL_EACH = {
    "invariants": ["-a", "1", "-b", "0", "-c", "1"],
    "decide": ["-a", "-12", "-b", "1", "-c", "-12", "--format", "json"],
    "torsion": ["-A", "0", "-B", "-432", "-x", "12", "-y", "36"],
    "family": ["-I", "3", "-J", "9", "-t", "2"],
    "e0-torsion": [],
    "bielliptic": ["-a", "1", "-c", "1"],
    "repcrit": ["--profile", "klein_c7"],
    "dihedral": ["-m", "7", "-a", "1", "-b", "2", "--format", "json"],
    "strata": ["--format", "json"],
    "scan": ["--a-range", "-2:2", "--b-range", "0:1", "--c-range", "1"],
}


def run_child(argv, stdout, cwd=None, preexec_fn=None, **env):
    """`ceresa-kit argv` in a child process writing to `stdout`, with `env` set;
    `preexec_fn` runs in the child before it starts Python."""
    src = str(Path(ceresa.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", "import sys; from ceresa_kit.cli import main; sys.exit(main())",
         *argv],
        stdout=stdout, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src, **env},
        cwd=cwd, preexec_fn=preexec_fn, timeout=60)


def readme_examples() -> list[list[str]]:
    """The arguments of each `ceresa-kit` line in the README's "## Command line" sh block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ceresa-kit ")]


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_runs(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # scan --out writes here
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    # A stdout that cannot encode a line is a failed write, not a traceback.
    done = run_child(argv, subprocess.PIPE, cwd=tmp_path, PYTHONIOENCODING="ascii")
    stderr = done.stderr.decode("ascii", "backslashreplace")
    assert done.returncode in (0, 2) and "Traceback" not in stderr
    if done.returncode == 2:
        assert stderr.startswith("error: cannot write '<stdout>': ") and stderr.count("\n") == 1


def test_one_call_each_covers_every_subcommand():
    assert list(ONE_CALL_EACH) == [row[0] for row in cli._COMMANDS]


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every argparse parser built from here on."""
    progs = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    return progs


def _equals_spelling(argv: list[str]) -> list[str]:
    return [f"{flag}={value}" for flag, value in zip(argv[::2], argv[1::2])]


@pytest.mark.parametrize("name", ONE_CALL_EACH)
def test_a_plain_call_builds_no_argparse_parser(name, capsys, parsers_built):
    for argv in (ONE_CALL_EACH[name], _equals_spelling(ONE_CALL_EACH[name])):
        assert run(capsys, name, *argv)[0] == 0
    assert parsers_built == []


@pytest.mark.parametrize("name, argv", [
    ("strata", ["-h"]),
    ("decide", ["-a", "-12", "-b", "1", "-c", "-12", "--form", "json"]),  # abbreviated
    ("invariants", ["-a", "1", "-b", "0", "-c", "1", "-a", "2"]),  # repeated
    ("invariants", ["-a", "1", "-b", "0", "-c"]),  # missing value
])
def test_any_other_call_builds_the_full_parser_once(name, argv, parsers_built):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.suppress(SystemExit, cli.UsageError):
        cli.build_parser(name).parse_args(argv)
    assert parsers_built.count("ceresa-kit") == 1


@pytest.mark.parametrize("name", ONE_CALL_EACH)
def test_a_closed_pipe_ends_every_subcommand_quietly(name):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        done = run_child([name, *ONE_CALL_EACH[name]], write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("name", ONE_CALL_EACH)
def test_a_full_device_is_one_write_error_for_every_subcommand(name):
    with open("/dev/full", "wb") as full:
        done = run_child([name, *ONE_CALL_EACH[name]], full)
    assert done.returncode == 2
    assert done.stderr.decode() == (
        f"error: cannot write '<stdout>': {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 between fork and exec")
@pytest.mark.parametrize("name", ONE_CALL_EACH)
def test_a_closed_stdout_is_one_write_error_for_every_subcommand(name):
    # As `ceresa-kit ... >&-`: Python starts with sys.stdout None.  The calls
    # cover text (repcrit) and --format json (decide, dihedral, strata).
    done = run_child([name, *ONE_CALL_EACH[name]], None, preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr.decode()) == (
        2, f"error: cannot write '<stdout>': {os.strerror(errno.EBADF)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_scan_out_to_a_full_device_is_a_write_error(capsys):
    code, out, err = run(capsys, "scan", *ONE_CALL_EACH["scan"], "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == f"error: cannot write '/dev/full': {os.strerror(errno.ENOSPC)}\n"


def with_value(argv: list[str], flag: str, value: str) -> list[str]:
    """`argv` with `flag` set to `value`, replacing the value it had if any."""
    if flag in argv:
        at = argv.index(flag) + 1
        return [*argv[:at], value, *argv[at + 1:]]
    return [*argv, flag, value]


# Quoted values are cut at 40 characters; the longest message around one,
# strata's list of known labels, is 134 characters.
MAX_ERROR_LINE = 160


def test_a_long_value_of_any_flag_gives_one_short_error_line(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    long_value = "missing/" + "x" * 292  # no such directory: `--out` cannot create it
    domain_errors, usage_errors = set(), set()
    for name, _, _, arguments in cli._COMMANDS:
        for flags, options in arguments:
            if options.get("action") == "store_true":
                continue
            code, out, err = run(capsys, name, *with_value(ONE_CALL_EACH[name], flags[0],
                                                           long_value))
            if code == 1:  # argparse refused the value; its usage lines follow the error line
                line, _, usage = err.partition("\n")
                assert out == "" and line.startswith("usage error: "), (name, flags, err)
                assert len(line) < MAX_ERROR_LINE and usage.startswith("usage: "), (name, err)
                assert line.count(f"{long_value[:40]!r}…") == 1, (name, flags, err)
                usage_errors.add(flags[0])
                continue
            assert (code, out) == (2, ""), (name, flags)
            assert err.startswith("error: ") and err.count("\n") == 1, (name, flags, err)
            assert len(err) <= MAX_ERROR_LINE, (name, flags, err)
            domain_errors.add(flags[0])
    # argparse refuses a value only by its type or its choices.
    assert usage_errors == {"-m", "-a", "-b", "--criterion", "--format", "--threads"}
    # Every flag without an argparse type or choices reaches its handler.
    assert domain_errors == {"-a", "-b", "-c", "-A", "-B", "-x", "-y", "-I", "-J", "-t",
                             "--profile", "--group", "--a-range", "--b-range", "--c-range",
                             "--out"}


def test_a_long_token_in_a_usage_error_is_cut(capsys):
    x = "x" * 3000
    cases = [  # argv, and the value argparse repeats: as its repr, or as typed
        (["decide", "-a", "1", "-b", "1", "-c", "1", f"--{x}"], f"--{x}", False),
        (["dihedral", f"-m{x}", "-a", "1", "-b", "2"], x, True),
        (["strata", f"--check={x}"], x, True),
        (["repcrit", "--profile", "klein_c7", f"--criterion={x}"], x, True),
        (["invariants", "-a", "1", "-b", "1", "-c", "1", "--format", f"{x} {x}"], f"{x} {x}", True),
        ([x], x, True),
        (["bogus"], "bogus", True),
    ]
    for argv, value, as_repr in cases:
        with pytest.raises(cli.UsageError) as refused:
            cli.build_parser().parse_args(argv)
        full, cut = (repr(value), quoted(value)) if as_repr else (value, clipped(value))
        code, out, err = run(capsys, *argv)
        line = err.partition("\n")[0]
        assert (code, out) == (1, "") and full in str(refused.value)
        assert line == f"usage error: {refused.value}".replace(full, cut), line
        assert len(line) < MAX_ERROR_LINE, line


# Any text, and ASCII text that is mostly the characters JSON escapes.
_JSON_TEXT = st.text() | st.text('"\\\x7f\x1f\t a~')
_JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCUMENTS)
def test_json_text_is_json_dumps_with_indent_2(document):
    assert cli._json_text(document) == json.dumps(document, indent=2)


def test_json_text_hands_any_other_value_to_json_dumps():
    document = {"tuple": (1, [2, ()]), "float": [1.5, float("inf")], "keys": {1: {None: 2.0}},
                "nested": [{"a": ({"b": (3,)},)}], "text": ["\u00e9", '"', "\\", "\x7f", ""]}
    assert cli._json_text(document) == json.dumps(document, indent=2)
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        cli._json_text({"x": [Fraction(1, 2)]})


def test_a_json_call_of_plain_text_imports_no_json():
    src = str(Path(ceresa.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); from ceresa_kit.cli import main\n"
            "for argv in (['repcrit', '--profile', 'dihedral:21,1,3'], ['strata'],\n"
            "             ['decide', '-a', '-12', '-b', '1', '-c', '-12']):\n"
            "    main([*argv, '--format', 'json'])\n"
            "print('json' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stderr == "False\n" and done.stdout.count('"') > 100


# Every flag that takes a value, as (command, flag), in the order of `cli._COMMANDS`.
VALUE_FLAGS = [(name, flags[0]) for name, _, _, arguments in cli._COMMANDS
               for flags, options in arguments if options.get("action") != "store_true"]
# Values no flag accepts.  argv cannot carry a NUL, so none is drawn.
_LONG_DIGITS = st.builds(lambda n, digits: (digits * n)[:n],
                         st.integers(MAX_LITERAL_CHARS + 1, 3000),
                         st.text("0123456789", min_size=1, max_size=12))
_NON_ASCII = st.text(st.characters(min_codepoint=128, exclude_categories=("Cs",)),
                     min_size=1, max_size=300)
_DASHED = st.one_of(  # a token argparse reads as a flag, or a negative value too long
    _LONG_DIGITS.map(lambda digits: "-" + digits),
    st.text(st.characters(exclude_characters="\0"), max_size=200).map(lambda t: "-" + t)
    .filter(lambda t: not cli._NEGATIVE_VALUE.match(t)),
)


@st.composite
def _bad_profile_texts(draw) -> str:
    """A profile file with a long list, a long object or a deep nesting where an integer goes."""
    n = draw(st.integers(1, 3000))
    value = draw(st.sampled_from([json.dumps(list(range(n))),
                                  json.dumps({f"key{i}": i for i in range(n)}),
                                  "[" * n + "]" * n]))
    fields = {"group_order": "1", "level": "1", "size": "1"}
    fields[draw(st.sampled_from(sorted(fields)))] = value
    return (f'{{"group_order": {fields["group_order"]}, "level": {fields["level"]}, '
            f'"classes": [{{"size": {fields["size"]}, "exps": [0, 0, 0]}}]}}')


def assert_one_short_error_line(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # a traceback would fail the test here
    line, _, rest = err.getvalue().partition("\n")
    assert code in (1, 2) and out.getvalue() == "", (code, line)
    assert line.startswith("error: " if code == 2 else "usage error: "), line
    assert len(line) < MAX_ERROR_LINE, line
    assert rest == "" if code == 2 else rest.startswith("usage: "), rest


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(VALUE_FLAGS), st.one_of(_LONG_DIGITS, _NON_ASCII, _DASHED))
def test_a_refused_value_of_any_flag_gives_one_short_error_line(tmp_path_factory, flag, value):
    name, flag = flag
    if flag == "--out":  # a name that can be created is a valid --out
        value = f"{tmp_path_factory.getbasetemp()}/missing/{value}"
    assert_one_short_error_line([name, *with_value(ONE_CALL_EACH[name], flag, value)])


@settings(max_examples=40, deadline=None)
@given(_bad_profile_texts())
def test_a_refused_profile_file_gives_one_short_error_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "profile.json"
    path.write_text(text)
    assert_one_short_error_line(["repcrit", "--profile", str(path)])


def test_a_long_integer_in_a_repcrit_error_is_clipped(capsys, tmp_path):
    long_value = "9" * 300
    level = tmp_path / "long-level.json"
    level.write_text(json.dumps({"group_order": 1, "level": int(long_value),
                                 "classes": [{"size": 1, "exps": [0, 0, 0]}]}))
    argvs = [["repcrit", "--profile", str(level)]]
    for at, flag in enumerate(("-m", "-a", "-b")):  # m, a and b, as flags and in a spec
        argvs.append(["dihedral", *with_value(ONE_CALL_EACH["dihedral"], flag, long_value)])
        params = ["7", "1", "2"]
        params[at] = long_value
        argvs.append(["repcrit", "--profile", "dihedral:" + ",".join(params)])
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.count("\n") == 1, (argv, err)
        assert err.startswith("error: ") and len(err) <= MAX_ERROR_LINE, (argv, err)
        assert f"{long_value[:40]}…" in err and long_value[:41] not in err, (argv, err)


@pytest.mark.parametrize("value", [
    list(range(2000)),
    {f"key{i}": i for i in range(500)},
    json.loads("[" * 500 + "]" * 500),
], ids=["long-list", "object", "nested-list"])
def test_a_long_json_value_in_a_profile_error_is_cut(capsys, tmp_path, value):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"group_order": 1, "level": 1,
                                "classes": [{"size": value, "exps": [0, 0, 0]}]}))
    code, out, err = run(capsys, "repcrit", "--profile", str(path))
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    assert err.startswith("error: malformed profile JSON: expected an integer, got ")
    assert len(err) <= MAX_ERROR_LINE and err.endswith(f"{repr(value)[:40]}…\n"), err


def test_quoted_cuts_any_long_repr_and_keeps_the_string_form():
    assert quoted("x" * 40) == repr("x" * 40)
    assert quoted("x" * 41) == f"{'x' * 40!r}…"
    # A short string of escaped characters is cut by the length of its repr.
    assert quoted("\x80" * 10) == repr("\x80" * 10)
    assert quoted("\x80" * 11) == repr("\x80" * 10) + "…"
    assert quoted("\U0010ffff" * 21) == repr("\U0010ffff" * 4) + "…"
    assert quoted("\\" * 20) == repr("\\" * 20) and quoted("\\" * 21) == repr("\\" * 20) + "…"
    assert quoted([1, 2]) == "[1, 2]"
    assert quoted(list(range(100))) == repr(list(range(100)))[:40] + "…"


def test_an_integer_literal_has_the_length_cap_of_a_rational_one(capsys):
    cap = max_literal_chars()
    at_cap, over = "9" * cap, "9" * (cap + 1)
    code, _, err = run(capsys, "dihedral", "-m", at_cap, "-a", "1", "-b", "3")
    assert (code, err) == (2, f"error: m = {clipped(at_cap)} is above the level cap "
                              f"{repcrit.MAX_LEVEL}\n")
    code, _, err = run(capsys, "dihedral", "-m", over, "-a", "1", "-b", "3")
    assert code == 1 and err.startswith("usage error: argument -m: invalid integer value")
    code, _, err = run(capsys, "repcrit", "--profile", f"dihedral:{at_cap},1,3")
    assert (code, err) == (2, f"error: m = {clipped(at_cap)} is above the level cap "
                              f"{repcrit.MAX_LEVEL}\n")
    code, _, err = run(capsys, "repcrit", "--profile", f"dihedral:{over},1,3")
    assert (code, err) == (2, f"error: expected dihedral:m,a,b, got "
                              f"{f'dihedral:{over}'[:40]!r}…\n")  # cut at 40 characters


@pytest.mark.parametrize("axes, message", [
    (("1:0", "1", "1"), "empty scan grid"),
    (("0:1:1/2", "0:3/2:1/2", "1"), "scan grid has more than 6 points"),
    (("0:1:2:3", "1", "1"), "bad range '0:1:2:3'; expected lo:hi[:step]"),
    (("0", "0:1:0", "1"), "range step must be nonzero"),
], ids=["empty", "over-cap", "bad-range", "zero-step"])
def test_refused_scan_grid_leaves_out_untouched(capsys, monkeypatch, tmp_path, axes, message):
    monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 6)
    argv = ["scan", "--a-range", axes[0], "--b-range", axes[1], "--c-range", axes[2]]
    existing = tmp_path / "existing.csv"
    existing.write_bytes(b"kept\r\n")
    absent = tmp_path / "absent.csv"
    for path in (existing, absent):
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    assert existing.read_bytes() == b"kept\r\n"
    assert not absent.exists()


def test_profile_validation_errors_keep_their_own_message(capsys, tmp_path):
    sizes = tmp_path / "sizes.json"
    sizes.write_text(json.dumps({"group_order": 3, "level": 3, "classes": [
        {"size": 1, "exps": [0, 0, 0]}, {"size": 1, "exps": [1, 1, 2]}]}))
    for path, message in (
        (level_profile(tmp_path, 10**12),
         f"level {10**12} is above the level cap {repcrit.MAX_LEVEL}"),
        (str(sizes), "class sizes do not sum to the group order"),
    ):
        code, out, err = run(capsys, "repcrit", "--profile", path)
        assert (code, out, err) == (2, "", f"error: {message}\n")


# A valid call of each subcommand that has rational (or range) flags.
VALID_CALLS = {
    "invariants": ["-a", "1", "-b", "0", "-c", "1"],
    "decide": ["-a", "1", "-b", "0", "-c", "1"],
    "torsion": ["-A", "0", "-B", "-432", "-x", "12", "-y", "36"],
    "family": ["-I", "3", "-J", "9", "-t", "0"],
    "bielliptic": ["-a", "1", "-c", "1"],
    "dihedral": ["-m", "7", "-a", "1", "-b", "2"],
    "repcrit": ["--profile", "klein_c7"],
    "scan": ["--a-range", "0", "--b-range", "1", "--c-range", "1"],
}


def test_negative_value_after_a_space_or_an_equals_sign_gives_the_same_output(
        capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # scan --out names a file here
    seen = set()
    for name, _, _, arguments in cli._COMMANDS:
        value_flags = [flags[0] for flags, options in arguments
                       if options.get("action") != "store_true"]
        for flag in value_flags:
            seen.add(name)
            base = VALID_CALLS.get(name, [])
            at = base.index(flag) if flag in base else len(base)
            json_too = "--format" in value_flags and flag != "--format"
            for fmt in ([], ["--format", "json"]) if json_too else ([],):
                before, after = [name, *base[:at]], [*base[at + 2:], *fmt]
                spaced = run(capsys, *before, flag, "-12/7", *after)
                assert spaced == run(capsys, *before, f"{flag}=-12/7", *after)
    assert seen == set(cli._COMMANDS_BY_NAME)


def _rationals(node):
    """`node` with every "p/q" string leaf read as a Fraction."""
    if isinstance(node, dict):
        return {key: _rationals(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_rationals(value) for value in node]
    if isinstance(node, str) and re.fullmatch(r"-?\d+(/\d+)?", node):
        return Fraction(node)
    return node


def _point(p):
    return "infinity" if p.is_infinity else {"x": p.x, "y": p.y}


def test_json_rationals_parse_back_to_the_library_values(capsys):
    rng = random.Random(20)

    def rational():
        digits = rng.choice((2, 2, 2, 20))
        return Fraction(rng.randint(-10**digits, 10**digits), rng.randint(1, 10**(digits // 2)))

    checked = 0
    for _ in range(40):
        a, b, c = rational(), rational(), rational()
        coeffs = ["-a", str(a), "-b", str(b), "-c", str(c)]
        inv = invariants(DepressedQuartic(a, b, c))
        expected = {"I": inv.I, "J": inv.J, "disc": inv.disc}
        assert _rationals(run_json(capsys, "invariants", *coeffs, "--format", "json")) == expected
        if inv.disc == 0:
            continue
        verdict = decide(PicardCurve.from_coefficients(a, b, c))
        payload = run_json(capsys, "decide", *coeffs, "--format", "json")
        assert _rationals(payload) == {
            "curve": {"a": a, "b": b, "c": c}, **expected, "P": _point(verdict.point),
            "chow": verdict.chow.to_json(), "griffiths": verdict.griffiths}
        short_b = -432 * inv.disc
        payload = run_json(capsys, "torsion", "-A", "0", "-B", str(short_b),
                           "-x", str(verdict.point.x), "-y", str(verdict.point.y),
                           "--format", "json")
        order = torsion_order_q(WeierstrassCurve(0, short_b), verdict.point)
        assert _rationals(payload) == {
            "curve": {"A": 0, "B": short_b}, "point": _point(verdict.point),
            "torsion": order is not None, "order": order}
        try:
            consistent = bielliptic_consistency(a, c)
        except DomainError:  # singular or degenerate at b = 0
            pass
        else:
            payload = run_json(capsys, "bielliptic", "-a", str(a), "-c", str(c),
                               "--format", "json")
            assert _rationals(payload) == {"a": a, "c": c, "consistent": consistent}
        checked += 1
    assert checked >= 30
    for j in ("9", "-9"):
        for _ in range(10):
            t = rational()
            member = family_generate(3, j, t)
            payload = run_json(capsys, "family", "-I", "3", "-J", j, "-t", str(t),
                               "--format", "json")
            q, inv = member.quartic, member.invariants
            assert _rationals(payload) == {"curve": {"a": q.a, "b": q.b, "c": q.c},
                                           "I": inv.I, "J": inv.J, "disc": inv.disc}
