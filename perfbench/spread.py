#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train_dchag plan_search --seeds 1 2 3 4 5
    python3 perfbench/spread.py --compare .perfbench/spread-A.json .perfbench/spread-B.json

The first form runs ``run.py`` with ``--trace 0`` once per (workload,
seed), one process at a time, and prints for every metric the median of
the runs and the distance between their first and third quartiles as a
share of the median (the figure the end-to-end bounds in
``BENCHMARK.json`` are held against).  Runs go seed by seed, every
workload at each seed, so a host that drifts over the series drifts
under every workload alike.  Results are written to ``--out``.

``--compare`` reads two such files and flags every metric whose median in
the second is worse than in the first by more than its bound; per-layer
metrics, which have no bound in ``BENCHMARK.json``, use ``LAYER_BOUND``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Bound for per-layer metrics: the largest an end-to-end bound may be.
LAYER_BOUND = 0.25


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def summarize(runs: dict[str, list[dict]]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for workload, results in runs.items():
        table = out.setdefault(workload, {})
        for res in results:
            for name, m in res["metrics"].items():
                table.setdefault(name, []).append(m["value"])
    return out


def report(values: dict[str, dict[str, list[float]]], bounds: dict[str, float]) -> None:
    for workload, table in values.items():
        print(f"== {workload}")
        for name, vals in table.items():
            med, iqr = spread(vals) if len(vals) > 1 else (vals[0], 0.0)
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound:.2f}  {'OK' if iqr < bound / 3 else 'WIDE'}"
            print(f"  {name:<28}{med:>16.6g}  iqr/med {iqr:7.4f}{note}")


def worsening(base: list[float], vals: list[float], better: str) -> float:
    """How much worse the median of *vals* is than that of *base*, as a
    share of the latter (0 when the base median is 0)."""
    m0, m1 = statistics.median(base), statistics.median(vals)
    if not m0:
        return 0.0
    return ((m1 - m0) if better == "lower" else (m0 - m1)) / abs(m0)


def compare(a: dict, b: dict, bounds: dict, better: dict) -> list[tuple]:
    """(workload, metric, median a, median b) for every metric whose median
    in *b* is worse than in *a* by more than its bound."""
    flagged = []
    for workload, table in b.items():
        for name, vals in table.items():
            base = a.get(workload, {}).get(name)
            if not base:
                continue
            bound = bounds.get(name, LAYER_BOUND)
            if worsening(base, vals, better.get(name, "lower")) > bound:
                flagged.append((workload, name, statistics.median(base), statistics.median(vals)))
    return flagged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path)
    args = ap.parse_args(argv)
    doc = spec()
    metrics = doc["end_to_end"] + doc["per_layer"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    better = {m["name"]: m["better"] for m in metrics}
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        flagged = compare(a, b, bounds, better)
        for workload, name, m0, m1 in flagged:
            print(f"{workload} {name}: {m0:.6g} -> {m1:.6g}")
        print(f"{len(flagged)} metric(s) worse than their bound")
        return 1 if flagged else 0
    workloads = args.workloads or [w["name"] for w in doc["workloads"]]
    seconds = args.seconds or doc["run_seconds"]
    runs: dict[str, list[dict]] = {}
    for seed in args.seeds:
        for workload in workloads:
            res = run_once(workload, seed, seconds, 0)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {res}")
            runs.setdefault(workload, []).append(res)
            print(f"{workload} seed {seed} done", flush=True)
    values = summarize(runs)
    report(values, bounds)
    out = args.out or ROOT / ".perfbench" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(values, indent=1))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
