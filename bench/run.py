"""End-to-end benchmark of the ceresa-kit command line, with a traced mode.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Runs from a source checkout: the package is imported from ``src/`` next to
this directory, and the run fails without printing a result if it is not
there.  The workload's CLI calls go through ``ceresa_kit.cli.main`` in this
process, as a closed loop with one client.  Before each call every
``lru_cache`` of the package is cleared, so a call costs what it costs a
one-shot CLI user.  Each output is checked by the independent oracle in
``oracle.py``.

With ``--trace 0`` the run times the calls with nothing installed and
reports the end-to-end metrics.  Call times are reported in reference
units: multiples of the time of a fixed pure-Python routine
(``reference.py``) timed after every call, so that the shared machine's
drifting speed cancels; the readable report gives the raw times beside
them.  With ``--trace 1`` it repeats a fixed
batch of the seed's calls, alternating plain passes with traced passes,
and reports per-layer call counts and self times of one pass, and the
tracing overhead (traced over plain pass time).  Both modes print the
machine, a readable report and, as the last line, the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import gen
import oracle
import reference
from tracer import Tracer, layer_stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PACKAGE = "ceresa_kit"

WORKLOADS = ("decide", "scan-grid", "repcrit-dihedral")
LIGHT, HEAVY = gen.LIGHT, gen.HEAVY

# Names the readable report gives each workload's metrics: every call,
# the light class, the heavy class, the throughput, and what an item is.
LABELS = {
    "decide": ("decide.call", "decide.short", "decide.tall", "decide.calls_per_s", "calls"),
    "scan-grid": ("scan.call", "scan.small_grid", "scan.large_grid", "scan.points_per_s",
                  "points"),
    "repcrit-dihedral": ("repcrit.profile", "repcrit.small_m", "repcrit.large_m",
                         "repcrit.profiles_per_s", "profiles"),
}
# Tail percentiles need ten samples beyond them.
MIN_SAMPLES = {LIGHT: 200, HEAVY: 100}

SPAN_LAYERS = (
    "cli.main",
    "cli.build_parser",
    "quartic.invariants",
    "ceresa.decide",
    "ceresa.picard_invariant_point",
    "elliptic.torsion_order_q",
    "elliptic.add",
    "ceresa.scan",
    "ceresa.scan_csv_lines",
    "repcrit.preset_profile",
    "repcrit.dim_inv_wedge3",
    "repcrit.invariant_dim",
)
COUNT_LAYERS = ("exactmath.rat", "elliptic.WeierstrassCurve.contains")
CACHED_LAYER = "repcrit.dim_inv_wedge3"

# Layers each workload must reach.  A traced run in which one of them
# records no call fails: the tracer's patch missed a new binding, or the
# program changed the path and this table must be revised with it.
_CLI = {"cli.main", "cli.build_parser", "exactmath.rat"}
_TORSION = {"quartic.invariants", "elliptic.torsion_order_q", "elliptic.add",
            "elliptic.WeierstrassCurve.contains"}
EXPECTED = {
    "decide": _CLI | _TORSION | {"ceresa.decide", "ceresa.picard_invariant_point"},
    "scan-grid": _CLI | _TORSION | {"ceresa.scan", "ceresa.scan_csv_lines"},
    "repcrit-dihedral": _CLI | {"repcrit.preset_profile", "repcrit.dim_inv_wedge3",
                                "repcrit.invariant_dim"},
}
# Calls in one pass of a traced run, and in the overhead check of a plain run.
TRACE_BATCH = {"decide": 48, "scan-grid": 12, "repcrit-dihedral": 16}
OVERHEAD_BATCH = {"decide": 16, "scan-grid": 3, "repcrit-dihedral": 8}
SETUP_REPEATS = 21
COLLECT_EVERY = 32  # calls between full collections, made outside the timing
CHUNK_BLOCKS = 8
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import ceresa_kit.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(Exception):
    pass


def load_cli():
    """Import the CLI module from this checkout's sources, nowhere else."""
    if not (SRC / PACKAGE / "cli.py").is_file():
        raise BenchError(f"no {PACKAGE} sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ceresa_kit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"{PACKAGE} was imported from {cli.__file__}, not {SRC}")
    return cli


def cold_start() -> float:
    """Seconds to import the CLI and build its parser in a fresh interpreter."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def package_caches() -> dict:
    """Every lru_cache of the package, by "module.function"."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith(PACKAGE + "."):
            short = name[len(PACKAGE) + 1:]
            for attr, value in vars(module).items():
                if callable(getattr(value, "cache_clear", None)) \
                        and value.__module__ == name:
                    found[f"{short}.{attr}"] = value
    return found


def make_calls(workload: str, seed, scan_out: Path):
    if workload == "decide":
        return gen.decide_calls(seed)
    if workload == "scan-grid":
        return gen.scan_calls(seed, str(scan_out))
    return gen.repcrit_calls(seed)


class Runner:
    """Makes CLI calls one at a time, times them and checks their outputs."""

    def __init__(self, cli, workload: str, scan_out: Path):
        self.cli = cli
        self.workload = workload
        self.scan_out = scan_out
        self.caches = package_caches()
        self.cache_hits = Counter()
        self.cache_lookups = Counter()
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, call: gen.Call) -> int:
        """Make one call; return its time in ns and record any failure."""
        for cache in self.caches.values():
            cache.cache_clear()
        # Freeze every object that exists before the call, the benchmark's
        # own included, so that a cyclic collection inside the timed call
        # scans only what the call made, as in a one-shot CLI process.
        if self.attempted % COLLECT_EVERY == 0:
            gc.unfreeze()
            gc.collect()
        gc.freeze()
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = self.cli.main(list(call.argv))
            except Exception as exc:  # a crash is a failed call, not a stop
                code, crash = None, f"{call.argv}: {exc!r}"
            elapsed = time.perf_counter_ns() - start
        if crash is None and threading.active_count() > 1:
            # work left running would slow the reference routine, and a
            # one-shot CLI process would not leave it behind
            crash = f"{call.argv}: left {threading.active_count() - 1} threads running"
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.cache_hits[name] += info.hits
            self.cache_lookups[name] += info.hits + info.misses
        self.attempted += 1
        reason = crash or self.check(call, code, out.getvalue(), err.getvalue())
        if reason:
            self.failures.append(reason)
        return elapsed

    def check(self, call: gen.Call, code, out: str, err: str) -> str | None:
        if self.workload == "decide":
            return oracle.check_decide(call.data, code, out, err)
        if self.workload == "scan-grid":
            text = self.scan_out.read_text(encoding="utf-8") if code == 0 else ""
            return oracle.check_scan(call.data, code, text)
        return oracle.check_repcrit(call.data, code, out)

    def hit_ratio(self, name: str) -> float:
        lookups = self.cache_lookups[name]
        return self.cache_hits[name] / lookups if lookups else 0.0


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(runner: Runner, calls, seconds: float, chunk: int, warm_call=None) -> dict:
    """Closed loop for `seconds`, extended until each class has its samples.

    Between the first chunks, outside the timing, the set-up time is taken
    by one cold start each, so that it is sampled over much of the run
    rather than in one short stretch of the machine's drifting speed.  An
    untimed `warm_call` after each cold start warms the processor's caches
    again for the next timed call.

    After every call the reference routine is timed once.  The calls are
    taken in chunks of `chunk` consecutive calls, a whole number of blocks
    with the same mix of classes.  Each call's time is divided by the median
    reference time of its chunk, which gives its latency in reference units
    ("ref"); a chunk's rate is its items per 1000 reference times of call
    time ("1/kref"), and the throughput is the median chunk rate.  The raw
    times are kept for the readable report.
    """
    classes = gen.BLOCKS[runner.workload]
    setup = []
    raw = {cls: [] for cls in classes}
    rel = {cls: [] for cls in classes}
    rates, raw_rates = [], []
    pending, refs = [], []
    items = busy_ns = 0
    cap = 2 * seconds + 10
    start = time.monotonic()

    def close_chunk():
        ref = statistics.median(refs)
        for call, ns in pending:
            rel[call.cls].append(ns / ref)
        if len(pending) == chunk:
            chunk_items = sum(call.items for call, _ in pending)
            chunk_ns = sum(ns for _, ns in pending)
            rates.append(1000 * chunk_items * ref / chunk_ns)
            raw_rates.append(chunk_items / chunk_ns * 1e9)
        pending.clear()
        refs.clear()
        if len(setup) < SETUP_REPEATS:
            setup.append(cold_start())
            if warm_call is not None:
                runner.run(warm_call)

    cold_start()  # the first start also writes the bytecode caches
    for call in calls:
        ns = runner.run(call)
        refs.append(reference.time_reference())
        pending.append((call, ns))
        raw[call.cls].append(ns / 1e6)
        items += call.items
        busy_ns += ns
        if len(pending) == chunk:
            close_chunk()
        elapsed = time.monotonic() - start
        enough = all(len(raw[c]) >= need for c, need in MIN_SAMPLES.items())
        if (elapsed >= seconds and enough) or elapsed >= cap:
            break
    if pending:
        close_chunk()
    while len(setup) < SETUP_REPEATS:
        setup.append(cold_start())
    return {"setup": setup, "raw": raw, "rel": rel, "items": items, "busy_s": busy_ns / 1e9,
            "rates": rates, "raw_rates": raw_rates}


def trace_pass(runner: Runner, batch, tracer: Tracer | None) -> int:
    total = 0
    for i, call in enumerate(batch):
        if tracer is not None:
            tracer.request = i
        total += runner.run(call)
    return total


def traced_passes(runner: Runner, batch, seconds: float):
    """Alternate plain and traced passes over the batch for `seconds`, at least once."""
    plain, traced, stats = [], [], []
    tracer = None
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        plain.append(trace_pass(runner, batch, None))
        tracer = Tracer(PACKAGE, list(SPAN_LAYERS), list(COUNT_LAYERS))
        tracer.install()
        try:
            traced.append(trace_pass(runner, batch, tracer))
        finally:
            tracer.uninstall()
        stats.append(layer_stats(tracer.spans, tracer.counts()))
    overhead = 100 * (statistics.median(traced) / statistics.median(plain) - 1)
    return overhead, stats, tracer


def layer_metrics(workload: str, stats, runner: Runner) -> dict:
    calls = stats[0].calls
    for other in stats[1:]:
        if other.calls != calls:
            raise BenchError("call counts differ between two traced passes of one batch")
    missing = sorted(layer for layer in EXPECTED[workload] if calls[layer] == 0)
    if missing:
        raise BenchError(f"layers predicted to run on {workload} recorded no calls: "
                         f"{', '.join(missing)}")
    metrics = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        self_ms = statistics.median(s.self_ns[layer] for s in stats) / 1e6
        metrics[f"{layer}.self_ms"] = (self_ms, "ms")
    for layer in COUNT_LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    metrics[f"{CACHED_LAYER}.cache_hit_ratio"] = (runner.hit_ratio(CACHED_LAYER), "ratio")
    unexpected = sorted(layer for layer in set(SPAN_LAYERS) | set(COUNT_LAYERS)
                        if calls[layer] and layer not in EXPECTED[workload])
    if unexpected:
        print(f"note: layers not predicted for {workload} ran: {', '.join(unexpected)}")
    return metrics


def end_to_end_metrics(run: dict) -> dict:
    rel = run["rel"]
    light, heavy = rel[LIGHT], rel[HEAVY]
    every = [x for per_class in rel.values() for x in per_class]
    return {
        "setup_s": (statistics.median(run["setup"]), "s"),
        "call_p50_ref": (statistics.median(every), "ref"),
        "call_p90_ref": (percentile(every, 90), "ref"),
        "light_p50_ref": (statistics.median(light), "ref"),
        "light_p95_ref": (percentile(light, 95), "ref"),
        "heavy_p50_ref": (statistics.median(heavy), "ref"),
        "heavy_p90_ref": (percentile(heavy, 90), "ref"),
        "items_per_kref": (statistics.median(run["rates"]), "1/kref"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def print_end_to_end(workload: str, metrics: dict, run: dict) -> None:
    """Each metric under its workload's name, with the raw figure beside it."""
    call_name, light_name, heavy_name, rate_name, unit_items = LABELS[workload]
    raw = run["raw"]
    every = [ms for per_class in raw.values() for ms in per_class]
    n_light, n_heavy, n_all = len(raw[LIGHT]), len(raw[HEAVY]), len(every)
    prefix = call_name.split(".")[0]
    rows = [
        ("setup_s", f"{prefix}.setup_s", None, f"n={len(run['setup'])} cold starts"),
        ("call_p50_ref", f"{call_name}_p50", statistics.median(every), f"n={n_all}"),
        ("call_p90_ref", f"{call_name}_p90", percentile(every, 90), f"n={n_all}"),
        ("light_p50_ref", f"{light_name}_p50", statistics.median(raw[LIGHT]), f"n={n_light}"),
        ("light_p95_ref", f"{light_name}_p95", percentile(raw[LIGHT], 95), f"n={n_light}"),
        ("heavy_p50_ref", f"{heavy_name}_p50", statistics.median(raw[HEAVY]), f"n={n_heavy}"),
        ("heavy_p90_ref", f"{heavy_name}_p90", percentile(raw[HEAVY], 90), f"n={n_heavy}"),
        ("items_per_kref", rate_name, statistics.median(run["raw_rates"]),
         f"median of {len(run['rates'])} chunks; {run['items']} {unit_items} "
         f"in {run['busy_s']:.2f} s of calls"),
        ("peak_rss_mib", f"{prefix}.peak_rss_mib", None, "this process"),
    ]
    for key, label, raw_value, count in rows:
        value, unit = metrics[key]
        shown = "" if raw_value is None else \
            f"{raw_value:>10.4f} {'1/s' if key == 'items_per_kref' else 'ms':<4}"
        print(f"  {key:<15} {label:<26} {value:>12.4f} {unit:<6} {shown:<16} {count}")


def print_layers(metrics: dict, batch_size: int) -> None:
    print(f"  per pass of {batch_size} calls:")
    for name, (value, unit) in metrics.items():
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.4f}"
        print(f"  {name:<46} {shown:>12} {unit}")


def machine_line() -> str:
    return (f"machine: nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
            f"python={platform.python_implementation()} {platform.python_version()} "
            f"platform={platform.machine()}")


def result_line(correct: bool, runner: Runner, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_cli()
    except (BenchError, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    scan_out = OUT_DIR / f"scan-{os.getpid()}.csv"
    try:
        return run_workload(cli, args, scan_out)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        scan_out.unlink(missing_ok=True)


def run_workload(cli, args, scan_out: Path) -> int:
    workload = args.workload
    print(machine_line())
    print(f"workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    runner = Runner(cli, workload, scan_out)
    warmup = _take(make_calls(workload, "warmup", scan_out), 8)
    for call in warmup:
        runner.run(call)
    if args.trace:
        batch = _take(make_calls(workload, args.seed, scan_out), TRACE_BATCH[workload])
        overhead, stats, tracer = traced_passes(runner, batch, args.seconds)
        metrics = layer_metrics(workload, stats, runner)
        metrics["trace.overhead_pct"] = (overhead, "%")
        spans_path = OUT_DIR / f"spans-{workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print_layers(metrics, len(batch))
        print(f"tracing overhead: {overhead:.1f} % over {len(stats)} pass pairs; "
              f"spans of the last pass in {spans_path.relative_to(ROOT)}")
    else:
        warm_call = next(call for call in warmup if call.cls == LIGHT)
        run = measure(runner, make_calls(workload, args.seed, scan_out), args.seconds,
                      CHUNK_BLOCKS * len(gen.BLOCKS[workload]), warm_call)
        metrics = end_to_end_metrics(run)
        print_end_to_end(workload, metrics, run)
        check = _take(make_calls(workload, f"overhead:{args.seed}", scan_out),
                      OVERHEAD_BATCH[workload])
        overhead, _, _ = traced_passes(runner, check, 0)
        print(f"tracing overhead: {overhead:.1f} % (one pass pair of {len(check)} calls)")
    failed = len(runner.failures)
    print(f"failed_ratio: {failed}/{runner.attempted}")
    for reason in runner.failures[:5]:
        print(f"  rejected: {reason[:400]}", file=sys.stderr)
    print(result_line(failed == 0, runner, metrics))
    return 0


def _take(iterator, n: int) -> list:
    return [next(iterator) for _ in range(n)]


if __name__ == "__main__":
    sys.exit(main())
