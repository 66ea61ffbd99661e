#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py [schema] [checks] [determinism] [sensitivity]

* ``schema`` -- ``BENCHMARK.json`` names exactly the workloads and metrics
  ``run.py`` produces, with the same units, and the §6.2 podium checked by
  ``plan_search`` is the one ``tests/test_autotune.py`` pins.
* ``checks`` -- every output check fails, with its own error, on a
  deliberately corrupted output: a TP peer's loss, a rising loss, a drifted
  elastic trajectory, an unsorted ranking, a wrong §6.2 podium, a store
  podium that differs from the in-memory ranking.
* ``determinism`` -- two traced runs with the same seed report identical
  counts (collective calls, wire bytes, allocations, FLOPs, captures,
  candidates, checkpoint bytes) on every workload.
* ``sensitivity`` -- a delay injected from the benchmark side slows one
  entry point 1.5x; the comparison of ``spread.py``, over the per-layer
  metrics and the untraced latency and throughput, flags that layer and no
  other layer on the workload it runs on, and flags nothing at all on that
  workload's control.

With no argument every test runs.  Exit code 0 means all passed.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spread  # noqa: E402
import workloads  # noqa: E402
from tracing import Patches, slow  # noqa: E402

DETERMINISTIC = [
    "dist.collective_calls", *[f"dist.wire_bytes.{op}" for op in run.WIRE],
    "tensor.alloc_count", "tensor.flops", "perf.capture_calls", "perf.candidates",
    "elastic.save_bytes",
]


def test_schema() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS), "workloads"
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END, "end_to_end"
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER, "per_layer"
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"]), "setup_s bound"
    spec = importlib.util.spec_from_file_location("test_autotune", ROOT / "tests" / "test_autotune.py")
    pinned = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pinned)
    assert workloads.SEC62_TOP3 == pinned.TestGoldenRanking.TOP3, "§6.2 podium differs from the pin"


def _fresh(name: str, scratch: Path, seed: int = 1):
    w = workloads.WORKLOADS[name](seed, scratch)
    w.setup()
    return w


def _expect_error(errors: list[str], what: str, says: str) -> None:
    """*errors* holds exactly one kind of error, the one that *says* ..."""
    assert errors, f"check did not catch: {what}"
    assert all(says in e for e in errors), f"{what}: expected only '{says}' errors, got {errors}"
    print(f"  caught {what}: {errors[0][:100]}")


def _unsort_tail(ranking):
    """The ranking with its podium kept and the rest in reverse order."""
    return type(ranking)([*ranking[:3], *reversed(ranking[3:])])


def test_checks(scratch: Path) -> None:
    w = _fresh("train_dchag", scratch)
    try:
        for _ in range(6):
            w.run_op(None)
    finally:
        w.close()
    assert not w.checks(), w.checks()
    losses = w.trainers[1].result.losses
    losses[3] += 1e-6
    _expect_error(w.checks(), "TP peer loss mismatch", "loss differs from rank 0")
    losses[3] -= 1e-6
    for t in w.trainers.values():
        t.result.losses.append(10.0)
    _expect_error(w.checks(), "loss that does not fall", "did not fall")

    w = _fresh("train_elastic", scratch)
    assert not w.checks(), w.checks()
    w.results[0].losses[7] *= 1.001
    _expect_error(w.checks(), "elastic trajectory drift", "trajectory differs")

    from repro.obs.store import SweepStore

    patches = Patches()
    # Each corruption is active while the workload runs and checks.
    for owner, attr, corrupt, what, says in (
        (workloads.perf, "search_configurations",
         lambda fn: lambda *a, **k: _unsort_tail(fn(*a, **k)),
         "unsorted search ranking", "not sorted"),
        (SweepStore, "top_plans", lambda fn: lambda *a, **k: list(reversed(fn(*a, **k))),
         "store podium differing from the ranking", "stored podium"),
    ):
        patches.replace(owner, attr, corrupt)
        try:
            w = _fresh("plan_search", scratch)
            _expect_error(w.checks(), what, says)
        finally:
            patches.undo()
            w.close()
    # The §6.2 podium is corrupted only where the check computes it, so the
    # store check, which compares with the returned ranking, stays quiet.
    w = _fresh("plan_search", scratch)
    try:
        assert not w.checks(), w.checks()
        patches.replace(
            workloads.perf, "search_configurations", lambda fn: lambda *a, **k: fn(*a, **k)[1:]
        )
        _expect_error(w.checks(), "wrong §6.2 podium", "§6.2 podium")
    finally:
        patches.undo()
        w.close()


def test_determinism(seconds: int = 4) -> None:
    for name in workloads.WORKLOADS:
        a, b = (spread.run_once(name, 7, seconds, 1)["metrics"] for _ in range(2))
        diff = {k: (a[k]["value"], b[k]["value"]) for k in DETERMINISTIC
                if a[k]["value"] != b[k]["value"]}
        assert not diff, f"{name}: counts differ between same-seed runs: {diff}"
        shown = {k: a[k]["value"] for k in DETERMINISTIC if a[k]["value"]}
        print(f"  {name}: identical counts {shown}")


# Untraced end-to-end figures of a traced run's first third: a slowed
# layer may move them on the workload it runs on, never on its control.
UNTRACED = ("op_s_p50", "op_s_tail", "items_per_s")
# Runs per side of a sensitivity comparison, in the order base, slowed,
# slowed, base, base, slowed, so a drifting host weighs on both sides alike.
REPS = 3


def _layers(name: str, scratch: Path, slow_layer: str | None, seconds: float) -> dict:
    patches = Patches()
    if slow_layer:
        slow(patches, slow_layer, 1.5)
    w = workloads.WORKLOADS[name](1, scratch)
    try:
        w.setup()
        args = SimpleNamespace(workload=name, seed=1, seconds=seconds)
        metrics, _, _, base = run.traced_run(args, w)
    finally:
        w.close()
        patches.undo()
    untraced = run.end_to_end(base, setup_s=0.0)
    return {**metrics, **{k: untraced[k] for k in UNTRACED}}


def test_sensitivity(scratch: Path, seconds: float = 15) -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    better = {m["name"]: m["better"] for m in doc["end_to_end"] + doc["per_layer"]}
    # (slowed layer, its metric, workload it runs on, control workload)
    cases = [
        ("tensor.optim", "tensor.optim_s", "train_dchag", "plan_search"),
        ("perf.capture", "perf.capture_s", "plan_search", "train_dchag"),
    ]

    for layer, metric, target, control in cases:
        for workload in (target, control):
            runs: dict = {None: [], layer: []}
            for rep in range(REPS):
                for slowed in list(runs)[:: -1 if rep % 2 else 1]:
                    runs[slowed].append(_layers(workload, scratch, slowed, seconds))
            base, slowed = (
                {workload: {k: [r[k] for r in done] for k in done[0]}} for done in runs.values()
            )
            flagged = {f[1]: f[3] / f[2] for f in spread.compare(base, slowed, bounds, better)}
            moved = {k: f"{v:.2f}x" for k, v in flagged.items()}
            if workload == control:
                assert not flagged, f"{layer} slowed 1.5x: control {workload} flagged {moved}"
            else:
                layers = set(flagged) - set(UNTRACED)
                assert layers == {metric}, (
                    f"{layer} slowed 1.5x: {workload} flagged layers {moved}, want {metric} only"
                )
            near = max(
                (spread.worsening(v, slowed[workload][k], better[k]), k)
                for k, v in base[workload].items() if k not in flagged
            )
            print(f"  {layer} x1.5 on {workload} ({'target' if workload == target else 'control'}):"
                  f" flagged {moved or 'nothing'}; largest other move {near[1]} {near[0]:+.2f}")


def main(argv: list[str]) -> int:
    tests = argv or ["schema", "checks", "determinism", "sensitivity"]
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        for name in tests:
            print(f"selftest {name}", flush=True)
            fn = globals()[f"test_{name}"]
            fn(scratch) if "scratch" in fn.__code__.co_varnames else fn()
            print(f"selftest {name}: ok", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    sys.exit(main(sys.argv[1:]))
