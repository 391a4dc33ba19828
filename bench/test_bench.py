"""Tests of the benchmark itself: generator, oracle, tracer and reference units.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import gen
import oracle
import reference
import run
from tracer import Span, Tracer, layer_stats, self_times

SRC = Path(__file__).resolve().parent.parent / "src"

F = Fraction


def _take(calls, n=60):
    return list(islice(calls, n))


def test_generators_are_deterministic_for_a_seed():
    for make in (gen.decide_calls, gen.repcrit_calls,
                 lambda seed: gen.scan_calls(seed, "out.csv")):
        assert _take(make(7)) == _take(make(7))
        assert _take(make(7)) != _take(make(8))


def test_generated_calls_are_distinct_and_stratified():
    calls = _take(gen.decide_calls(3), 400)
    assert len({c.argv for c in calls}) == len(calls)
    heavy = sum(c.cls == gen.HEAVY for c in calls)
    assert heavy == 100  # one tall call in every block of four
    dihedral = [c for c in _take(gen.repcrit_calls(3), 600) if c.data[0] == "dihedral"]
    assert len({c.data for c in dihedral}) == len(dihedral)


def test_constructed_decide_inputs_have_their_intended_orders():
    orders = {}
    for call in _take(gen.decide_calls(5), 600):
        inv = oracle.invariants(*call.data)
        if inv[2] == 0:
            orders.setdefault("singular", 0)
            orders["singular"] += 1
            continue
        order = oracle.point_order(*inv)
        orders[order] = orders.get(order, 0) + 1
    # a quarter of each class is torsion, split evenly over orders 2, 3, 6
    assert orders[2] >= 40 and orders[3] >= 40 and orders[6] >= 40
    assert orders["singular"] >= 5


def test_negative_values_use_both_flag_forms():
    argvs = [c.argv for c in _take(gen.decide_calls(1), 40)]
    joined = any(tok.startswith(("-a=-", "-b=-", "-c=-")) for argv in argvs for tok in argv)
    split = any(argv[i] in ("-a", "-b", "-c") and argv[i + 1].startswith("-")
                for argv in argvs for i in range(len(argv) - 1))
    assert joined and split


def test_oracle_known_answers():
    def order(a, b, c):
        return oracle.point_order(*oracle.invariants(F(a), F(b), F(c)))

    assert order(-12, 1, -12) == 3
    assert order(0, 0, -1) == 2
    assert order(*gen.ORDER6_QUARTIC) == 6
    assert oracle.invariants(*gen.ORDER6_QUARTIC)[:2] == (2, 6)
    assert order(1, 0, 1) is None


def _decide_record(a, b, c, chow):
    inv_i, inv_j, disc = oracle.invariants(F(a), F(b), F(c))
    return json.dumps({
        "curve": {"a": str(a), "b": str(b), "c": str(c)},
        "I": str(inv_i), "J": str(inv_j), "disc": str(disc),
        "P": {"x": str(4 * inv_i), "y": str(4 * inv_j)},
        "chow": chow, "griffiths": "torsion",
    }, indent=2) + "\n"


def test_oracle_rejects_a_wrong_verdict():
    coeffs = (F(1), F(0), F(1))
    right = _decide_record(1, 0, 1, {"torsion": False})
    wrong = _decide_record(1, 0, 1, {"torsion": True, "point_order": 3})
    assert oracle.check_decide(coeffs, 0, right, "") is None
    assert oracle.check_decide(coeffs, 0, wrong, "") is not None
    assert oracle.check_decide(coeffs, 1, right, "") is not None

    three = (F(-12), F(1), F(-12))
    assert oracle.check_decide(three, 0, _decide_record(-12, 1, -12, {"torsion": True,
                                                                        "point_order": 3}),
                               "") is None
    assert oracle.check_decide(three, 0, _decide_record(-12, 1, -12, {"torsion": True,
                                                                        "point_order": 6}),
                               "") is not None


def test_oracle_singular_inputs_expect_exit_code_two():
    coeffs = gen._singular(F(1, 2), F(3))
    assert oracle.invariants(*coeffs)[2] == 0
    assert oracle.check_decide(coeffs, 2, "", "error: singular quartic (disc = 0)") is None
    assert oracle.check_decide(coeffs, 0, "{}", "") is not None


def test_oracle_scan_rows_order_and_skips():
    axes = ((F(-1), F(0)), (F(0), F(1, 7)), (F(0), F(2, 3)))
    rows = [oracle.scan_row(*p) for p in product(*axes)]
    text = "\n".join([oracle.SCAN_HEADER] + rows) + "\n"
    assert oracle.check_scan(axes, 0, text) is None
    assert ",skipped," in rows[0]  # the origin: disc = 0
    swapped = "\n".join([oracle.SCAN_HEADER, rows[1], rows[0]] + rows[2:]) + "\n"
    assert oracle.check_scan(axes, 0, swapped) is not None
    flipped = text.replace(",non_torsion,", ",torsion,", 1)
    assert flipped != text and oracle.check_scan(axes, 0, flipped) is not None


def test_oracle_repcrit_counts():
    # Klein quartic C7 with exponents (1, 2, 4): 1 + 2 + 4 = 7
    klein = oracle.repcrit_record(7, (1, 2, 4))
    assert klein["wedge3_v_invariants"] == 1 and klein["criterion_b"] is False
    assert oracle.repcrit_record(3, (1, 1, 2))["wedge3_v_invariants"] == 0
    # brute force over index triples agrees with the residue count
    exps = oracle.dihedral_spectrum(20, 3, 7)
    brute = sum(1 for i in range(len(exps)) for j in range(i + 1, len(exps))
                for k in range(j + 1, len(exps)) if (exps[i] + exps[j] + exps[k]) % 20 == 0)
    assert oracle.wedge3_invariants(20, exps) == brute
    good = json.dumps(oracle.repcrit_record(7, (1, 2, 4)))
    bad = json.dumps({**oracle.repcrit_record(7, (1, 2, 4)), "criterion_b": True})
    assert oracle.check_repcrit(("preset", "klein_c7"), 0, good) is None
    assert oracle.check_repcrit(("preset", "klein_c7"), 0, bad) is not None


def test_self_times_on_a_hand_built_tree():
    root = Span("root", 0, 100)
    a = Span("a", 10, 40, root)
    b = Span("b", 30, 60, root)  # overlaps a, as a second worker thread would
    c = Span("c", 15, 25, a)
    spans = [root, a, b, c]
    # root: 100 - |[10, 60]|; a: 30 - 10; b: 30; c: 10
    assert self_times(spans) == [50, 20, 30, 10]
    stats = layer_stats(spans + [Span("c", 70, 75, root)], {"count": 3})
    assert stats.calls == {"root": 1, "a": 1, "b": 1, "c": 2, "count": 3}
    assert stats.self_ns["c"] == 15 and stats.self_ns["root"] == 45


def test_tracer_patches_every_binding_and_restores_them():
    sys.path.insert(0, str(SRC))
    from ceresa_kit import ceresa, cli, quartic

    original = quartic.invariants
    tracer = Tracer("ceresa_kit", ["cli.main", "quartic.invariants"], ["exactmath.rat"])
    tracer.install()
    try:
        assert ceresa.invariants is not original and cli.invariants is not original
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["decide", "-a", "-12", "-b", "1", "-c", "-12"]) == 0
    finally:
        tracer.uninstall()
    assert quartic.invariants is original and ceresa.invariants is original
    stats = layer_stats(tracer.spans, tracer.counts())
    assert stats.calls["cli.main"] == 1
    assert stats.calls["quartic.invariants"] == 2  # PicardCurve check and decide
    assert stats.calls["exactmath.rat"] > 0
    main_span = tracer.spans[0]
    assert all(s.parent is main_span for s in tracer.spans[1:])


def test_reference_routine_is_fixed_work_outside_the_package():
    assert reference.reference() == reference.reference()
    assert reference.time_reference() > 0
    assert "ceresa_kit" not in Path(reference.__file__).read_text(encoding="utf-8")


def test_latencies_are_in_units_of_their_chunks_reference_time(monkeypatch):
    classes = gen.BLOCKS["repcrit-dihedral"]  # light, heavy, preset
    calls = [gen.Call(cls, (cls,), 1, ()) for cls in classes * 2]
    call_ns = iter([10, 20, 30, 40, 50, 60])
    ref_ns = iter([1, 2, 3, 5, 5, 100])  # chunk medians 2 and 5

    class FakeRunner:
        workload = "repcrit-dihedral"

        def run(self, call):
            return next(call_ns)

    monkeypatch.setattr(reference, "time_reference", lambda: next(ref_ns))
    monkeypatch.setattr(run, "cold_start", lambda: 0.05)
    got = run.measure(FakeRunner(), calls, seconds=0, chunk=3)
    assert got["rel"] == {gen.LIGHT: [5, 8], gen.HEAVY: [10, 10], gen.PRESET: [15, 12]}
    # 3 items in 60 ns at a 2 ns reference, and 3 in 150 ns at 5 ns
    assert got["rates"] == [100, 100]
    assert got["raw"][gen.LIGHT] == [10 / 1e6, 40 / 1e6]
    assert got["setup"] == [0.05] * run.SETUP_REPEATS
