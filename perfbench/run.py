#!/usr/bin/env python3
"""End-to-end benchmark of the D-CHAG reproduction, one workload per process.

    python3 perfbench/run.py --workload train_dchag --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``train_dchag``,
``train_elastic``, ``plan_search``.

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` first measures a third of ``--seconds`` untraced, then traces
the rest and reports the per-layer metrics, ``trace.overhead`` (traced over
untraced median operation latency) among them.  The traced spans are
written to ``.perfbench/`` when the run ends.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  The
exit code is 0 only if every output check passed.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Time layers: (metric, layer, column of tracing.summarize).
LAYER_TIMES = [
    ("data.batch_s", "data.batch", "busy"),
    ("train.step_self_s", "train.step", "self"),
    ("nn.forward_s", "nn.forward", "busy"),
    ("core.dchag_forward_s", "core.dchag_forward", "busy"),
    ("tensor.backward_s", "tensor.backward", "busy"),
    ("tensor.optim_s", "tensor.optim", "busy"),
    ("tensor.clip_s", "tensor.clip", "busy"),
    ("tensor.zero_grad_s", "tensor.zero_grad", "busy"),
    ("dist.collective_s", "dist.collective", "busy"),
    ("elastic.save_s", "elastic.save", "busy"),
    ("elastic.reshard_s", "elastic.reshard", "busy"),
    ("elastic.load_s", "elastic.load", "busy"),
    ("perf.capture_s", "perf.capture", "busy"),
    ("perf.score_s", "perf.score", "busy"),
    ("perf.comm_model_s", "perf.comm_model", "busy"),
    ("perf.flops_model_s", "perf.flops_model", "busy"),
    ("perf.memory_model_s", "perf.memory_model", "busy"),
    ("perf.autotune_self_s", "perf.autotune", "self"),
    ("obs.store_write_s", "obs.store_write", "busy"),
    ("obs.store_read_s", "obs.store_read", "busy"),
]
LAYER_CALLS = [
    ("dist.collective_calls", "dist.collective"),
    ("perf.capture_calls", "perf.capture"),
    ("perf.oracle_calls", "perf.oracle"),
    ("perf.score_calls", "perf.score"),
]
WIRE = ["all_reduce", "all_gather", "reduce_scatter", "broadcast", "all_to_all", "other"]

PER_LAYER = {
    **{name: "s" for name, _, _ in LAYER_TIMES},
    "dist.grad_sync_s": "s",
    "dist.rank_skew_s": "s",
    **{name: "count" for name, _ in LAYER_CALLS},
    **{f"dist.wire_bytes.{op}": "bytes" for op in WIRE},
    "tensor.alloc_count": "count",
    "tensor.alloc_bytes": "bytes",
    "tensor.peak_bytes": "bytes",
    "tensor.peak_bytes_tp1": "bytes",
    "tensor.flops": "flop",
    "elastic.save_bytes": "bytes",
    "elastic.reshard_bytes": "bytes",
    "elastic.steps_lost": "count",
    "elastic.recovery_s": "s",
    "perf.oracle_hit_ratio": "ratio",
    "perf.fit_memo_hit_ratio": "ratio",
    "perf.candidates": "count",
    "perf.modeled_tflops": "TFLOP/s",
    "perf.repeat_share": "ratio",
    "obs.store_bytes": "bytes",
    "train.final_loss": "loss",
    "trace.overhead": "ratio",
}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples, and at least a
    tenth of them, beyond it, and which percentile that is; the median
    when there are too few samples.  The p90 floor keeps a run of a
    thousand short requests from reporting its ten slowest alone, which a
    single burst of host contention decides."""
    ordered = sorted(values)
    n = len(ordered)
    i = n - 1 - max(10, math.ceil(n / 10))
    if i < (n - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[i], 100.0 * (i + 1) / n


@dataclass
class Window:
    latencies: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    ops: int = 0
    seconds: float = 0.0


def measure(workload, seconds: float, tracer=None, min_ops: int = 0) -> Window:
    """Run operations back to back for *seconds* (and at least *min_ops*)."""
    win = Window()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline or win.ops < min_ops:
        if tracer is not None:
            tracer.op = win.ops
        win.ops += 1
        win.attempted += workload.ATTEMPTS_PER_OP
        try:
            out = workload.run_op(tracer)
            if tracer is not None:
                tracer.fold_traffic()
        except Exception:  # the operation failed; the run reports it
            traceback.print_exc(file=sys.stderr)
            win.failed += workload.ATTEMPTS_PER_OP
            break
        win.latencies.append(out.seconds)
        win.items += out.items
        win.failed += out.failed
    win.seconds = time.perf_counter() - t0
    if not win.latencies:
        raise RuntimeError("no operation completed; no metric can be reported")
    return win


def end_to_end(win: Window, setup_s: float) -> dict[str, float]:
    tail_value, _ = tail(win.latencies)
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(win.latencies),
        "op_s_tail": tail_value,
        "items_per_s": win.items / win.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, tracer, win: Window, base: Window, memo) -> tuple[dict, dict]:
    """Per-layer metrics of the traced window, and the full layer table."""
    from tracing import summarize
    from repro.perf.throughput import max_batch_per_replica

    all_ops = range(win.ops)
    count_ops = range(min(win.ops, workload.COUNT_OPS))
    table = summarize(tracer, all_ops)
    counted = summarize(tracer, count_ops)
    units = workload.units(tracer, all_ops)
    count_units = workload.units(tracer, count_ops)

    def per_rank(row: dict, column: str) -> float:
        return row[column] / (units * max(1, len(row["ranks"])))

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, layer, column in LAYER_TIMES:
        if layer in table:
            metrics[name] = per_rank(table[layer], column)
    # Gradient sync: the DP all-reduce, plus FSDP's gradient reduce-scatter.
    sync = [s for s in tracer.spans if s[1] in ("dist.grad_sync", "dist.collective.reduce_scatter")]
    if sync:
        ranks = {s[5] for s in sync}
        metrics["dist.grad_sync_s"] = sum(s[3] - s[2] for s in sync) / (units * len(ranks))
    for name, layer in LAYER_CALLS:
        if layer in counted:
            metrics[name] = counted[layer]["calls"] / count_units
    for op in WIRE:
        key = f"dist.wire_bytes.{op}"
        metrics[key] = sum(tracer.counts.get((i, key), 0) for i in count_ops) / count_units
    metrics["dist.rank_skew_s"] = sum(
        tracer.counts.get((i, "dist.rank_skew"), 0) for i in all_ops
    ) / units
    if metrics["perf.oracle_calls"]:
        metrics["perf.oracle_hit_ratio"] = 1.0 - metrics["perf.capture_calls"] / metrics["perf.oracle_calls"]
    info = max_batch_per_replica.cache_info()
    lookups = info.hits + info.misses - memo.hits - memo.misses
    if lookups:
        metrics["perf.fit_memo_hit_ratio"] = (info.hits - memo.hits) / lookups
    metrics.update(workload.layer_counts(tracer, count_ops))
    figures = workload.figures()
    for key, name in (
        ("train.final_loss", "final_loss"), ("elastic.recovery_s", "recovery_s"),
        ("perf.modeled_tflops", "modeled_tflops"), ("perf.repeat_share", "repeat_share"),
    ):
        if name in figures:
            metrics[key] = figures[name][0]
    metrics["trace.overhead"] = statistics.median(win.latencies) / statistics.median(base.latencies)
    return metrics, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = OUT / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def setup_in_child(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run(args, cls, scratch: Path) -> int:
    workload = cls(args.seed, scratch)
    try:
        workload.setup()
        setups = [time.perf_counter() - PROCESS_T0]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        # Repeated set-ups run in fresh processes, one at a time, so this
        # process's memory holds one set-up only, as a real run's would.
        setups += [setup_in_child(args) for _ in range(SETUP_REPS - 1)]
        setup_s = statistics.median(setups)
        if args.trace:
            metrics, units, win, _ = traced_run(args, workload)
        else:
            win = measure(workload, args.seconds)
            metrics, units = end_to_end(win, setup_s), END_TO_END
        workload.close()
        errors = workload.checks()
        figures = workload.figures()
    finally:
        workload.close()

    tail_value, pct = tail(win.latencies)
    print(f"workload {args.workload} seed {args.seed}: {win.ops} operations, "
          f"in {win.seconds:.2f} s; "
          f"tail = p{pct:.1f} ({tail_value:.6f} s)")
    print("set-up: " + ", ".join(f"{t:.4f}" for t in setups)
          + " s from process start to the end of the first operation")
    print(f"failed_frac {win.failed / max(1, win.attempted):.6f} ratio")
    for name, (value, unit) in figures.items():
        print(f"{name} {value:.6g} {unit}")
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": win.attempted,
        "failed": win.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def traced_run(args, workload):
    from tracing import Patches, Tracer, trace_all, write_trace
    from repro.perf.throughput import max_batch_per_replica

    base = measure(workload, args.seconds / 3)
    tracer, patches = Tracer(), Patches()
    trace_all(patches, tracer)
    workload.trace_begin(tracer, patches)
    memo = max_batch_per_replica.cache_info()
    # Counts are read over the first operations of the traced window; with
    # the inputs served from the start they are the same in every run.
    workload.restart_inputs()
    workload.track_step(tracer)
    try:
        win = measure(workload, 2 * args.seconds / 3, tracer, min_ops=workload.COUNT_OPS)
    finally:
        patches.undo()
    metrics, table = per_layer(workload, tracer, win, base, memo)
    stem = f"{args.workload}-seed{args.seed}"
    write_trace(tracer, OUT / f"trace-{stem}.json")
    rows = {k: {**v, "ranks": sorted(v["ranks"])} for k, v in table.items()}
    (OUT / f"layers-{stem}.json").write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(f"{'layer':<22}{'busy s/op':>12}{'self s/op':>12}{'calls/op':>10}")
    for layer, row in sorted(rows.items(), key=lambda kv: -kv[1]["self"]):
        print(f"{layer:<22}{row['busy'] / win.ops:>12.6f}{row['self'] / win.ops:>12.6f}"
              f"{row['calls'] / win.ops:>10.1f}")
    return metrics, PER_LAYER, win, base


if __name__ == "__main__":
    sys.exit(main())
