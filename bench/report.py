"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/report.py --seeds 1-10
    python3 bench/report.py --seeds 1-3 --workloads decide --trace 1
    python3 bench/report.py --seeds 1-10 --out bench/BENCH_baseline.json

Each (workload, seed) is one run of bench/run.py in a child process, one
at a time.  For every metric the summary gives the median over the seeds,
the quartiles, and the spread (q3 - q1) / median that BENCHMARK.json's
bound must cover; a spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the summary as JSON to this file")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    seeds = parse_seeds(args.seeds)
    summary = {}
    machine = None
    all_correct = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            start = time.monotonic()
            result, text = run_once(workload, seed, args.seconds, args.trace)
            machine = machine or text.splitlines()[0]
            all_correct &= result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            shown = " ".join(f"{name}={values[name][-1]:.4g}" for name in bounds
                             if name.endswith(("_ms", "_s", "_ref", "_kref")))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({time.monotonic() - start:.0f} s) {shown}", flush=True)
        summary[workload] = {}
        print(f"\n{workload}: median, quartiles and spread over {len(seeds)} seeds")
        for name, vals in values.items():
            s = summarise(vals)
            summary[workload][name] = s
            bound = bounds[name]
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = f"  SPREAD ABOVE bound/3 = {bound / 3:.3f}"
            print(f"  {name:<46} {s['median']:>12.4f}  [{s['q1']:.4f}, {s['q3']:.4f}]"
                  f"  spread {s['spread']:.3f}{flag}")
        print(flush=True)
    print(machine)
    print(f"all outputs correct: {all_correct}")
    if args.out:
        record = {
            "command": f"python3 bench/report.py --seeds {args.seeds} "
                       f"--seconds {args.seconds} --trace {args.trace}",
            "machine": machine,
            "seeds": seeds,
            "all_correct": all_correct,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
