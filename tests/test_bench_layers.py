"""Every layer the benchmark traces records a call on its workload.

A traced benchmark run (``bench/run.py --trace 1``) fails when a layer that
``bench/run.py``'s ``EXPECTED`` table predicts for a workload records no
call: the function was renamed, moved off the workload's path, or bound
somewhere the tracer's patch does not reach.  This test makes one
representative CLI call per workload under the benchmark's own tracer, so
that the test suite notices before a benchmark run does.  It reads the
benchmark's modules and changes nothing in them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

from ceresa_kit import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

# One representative call per benchmark workload; "{out}" is a scan output file.
CALLS = {
    "decide": ["decide", "-a", "1", "-b", "0", "-c", "1", "--format", "json"],
    "scan-grid": ["scan", "--a-range", "0,1", "--b-range", "1", "--c-range", "1",
                  "--threads", "1", "--out", "{out}"],
    "repcrit-dihedral": ["repcrit", "--profile", "dihedral:15,1,3", "--format", "json"],
}


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `run` and `tracer` modules, imported from bench/."""
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("run"), importlib.import_module("tracer")
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == BENCH:
            del sys.modules[name]


def test_every_workload_has_a_representative_call(bench):
    run, _ = bench
    assert set(CALLS) == set(run.WORKLOADS) == set(run.EXPECTED)


@pytest.mark.parametrize("workload", list(CALLS))
def test_traced_call_reaches_every_expected_layer(bench, tmp_path, workload):
    run, tracer_module = bench
    argv = [arg.format(out=tmp_path / "scan.csv") for arg in CALLS[workload]]
    tracer = tracer_module.Tracer(run.PACKAGE, list(run.SPAN_LAYERS), list(run.COUNT_LAYERS))
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    calls = tracer_module.layer_stats(tracer.spans, tracer.counts()).calls
    assert sorted(layer for layer in run.EXPECTED[workload] if calls[layer] == 0) == []
