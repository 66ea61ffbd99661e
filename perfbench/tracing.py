"""Spans and counters recorded from outside the program.

Nothing under ``src/`` knows it is traced: :class:`Patches` swaps a public
entry point of a layer for a wrapper and puts the original back afterwards.
The wrapper records one span per call -- name, start, end, parent span,
rank, operation id -- into memory; :func:`write_trace` writes them out when
the run ends.  Ranks are the simulated SPMD ranks, read from the runtime's
thread names (``spmd-rank-N``); the client thread is rank -1.

The same patching injects a delay into an entry point (``slow``), which the
sensitivity self-test uses to slow one layer by a known factor.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# One span: (id, name, start, end, parent id or -1, rank, op id).
Span = tuple


def thread_rank() -> int:
    name = threading.current_thread().name
    return int(name.rsplit("-", 1)[1]) if name.startswith("spmd-rank-") else -1


class Tracer:
    """In-memory span recorder shared by every thread of the process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0  # id of the operation the client is running
        self._ids = itertools.count()
        self._local = threading.local()
        # (op, layer) -> count, for counters the program keeps itself
        # (traffic log bytes, checkpoint bytes) rather than spans.
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.worlds: list = []  # SPMD worlds whose traffic is still being read
        self._seen: dict[int, dict[str, int]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """*fn* with every call recorded as a span named *name*."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _SpanScope(self, name):
                return fn(*args, **kwargs)

        return traced

    def span(self, name: str):
        """Record a span around a call site (``with tracer.span(name):``)."""
        return _SpanScope(self, name)

    def add(self, layer: str, value: float, op: int | None = None) -> None:
        self.counts[(self.op if op is None else op, layer)] += value

    # -- traffic of SPMD worlds ------------------------------------------
    def watch(self, world) -> None:
        """Charge *world*'s wire bytes from now on to the ops that move them."""
        self.worlds.append(world)
        log = world.traffic
        self._seen[id(world)] = {op: log.totals(op=op).wire_bytes for op in log.ops_histogram()}

    def fold_traffic(self) -> None:
        """Charge new wire bytes of every watched world to the current op.

        Call between operations, when no rank is mid-collective; worlds
        whose ranks have all exited are read a last time and dropped.
        """
        keep = []
        for world in self.worlds:
            seen = self._seen[id(world)]
            log = world.traffic
            for op_name in log.ops_histogram():
                wire = log.totals(op=op_name).wire_bytes
                self.add(f"dist.wire_bytes.{_wire_bucket(op_name)}", wire - seen.get(op_name, 0))
                seen[op_name] = wire
            if "running" in world.rank_status:
                keep.append(world)
            else:
                del self._seen[id(world)]
        self.worlds = keep


class _SpanScope:
    __slots__ = ("tracer", "name", "sid", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else -1
        stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.name, self.t0, t1, self.parent, thread_rank(), self.tracer.op)
        )


WIRE_OPS = ("all_reduce", "all_gather", "reduce_scatter", "broadcast", "all_to_all")


def _wire_bucket(op_name: str) -> str:
    return op_name if op_name in WIRE_OPS else "other"


# -- the entry points each layer is measured at ------------------------------

COLLECTIVES = (
    "all_reduce", "all_gather", "reduce_scatter", "broadcast", "all_to_all",
    "scatter", "gather", "send", "recv", "barrier",
)


def entry_points() -> list[tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every public call traced.

    A module-level function is listed once by its defining module; the
    patcher also rebinds every ``repro`` module that imported it by name.
    """
    from repro.core import DCHAG
    from repro.data import HyperspectralDataset
    from repro.dist import Communicator, autograd as dist_autograd
    from repro.elastic import checkpoint as ckpt
    from repro.models import MAEModel
    from repro.nn import Module
    from repro.obs.store import SweepStore
    from repro.parallel.fsdp import FSDPModel
    from repro.perf import (
        autotune, calibrate, comm_model, flops, memory_model, throughput,
    )
    from repro.tensor import AdamW, Optimizer, Tensor, optim
    from repro.train import Trainer

    points = [
        ("data.batch", HyperspectralDataset, "batch"),
        ("train.step", Trainer, "step"),
        ("nn.forward", MAEModel, "loss"),
        ("nn.forward", FSDPModel, "loss"),
        ("core.dchag_forward", DCHAG, "forward"),
        ("tensor.backward", Tensor, "backward"),
        ("tensor.optim", AdamW, "step"),
        ("tensor.clip", optim, "clip_grad_norm"),
        ("tensor.clip", dist_autograd, "clip_grad_norm_sharded"),
        ("tensor.zero_grad", Module, "zero_grad"),
        ("tensor.zero_grad", Optimizer, "zero_grad"),
        ("dist.grad_sync", dist_autograd, "average_gradients"),
        ("elastic.save", ckpt, "save_sharded"),
        ("elastic.reshard", ckpt, "reshard"),
        ("elastic.load", ckpt, "load_sharded"),
        ("perf.capture", calibrate, "measure_plan"),
        ("perf.score", throughput, "global_batch_throughput"),
        ("perf.comm_model", comm_model, "estimate_step_comm"),
        ("perf.comm_model", comm_model, "step_comm_schedule"),
        ("perf.flops_model", flops, "estimate_flops"),
        ("perf.memory_model", memory_model, "estimate_memory"),
        ("perf.autotune", autotune, "search_configurations"),
        ("obs.store_write", SweepStore, "record_run"),
        ("obs.store_write", SweepStore, "record_plans"),
        ("obs.store_read", SweepStore, "top_plans"),
    ]
    points += [(f"dist.collective.{op}", Communicator, op) for op in COLLECTIVES]
    return points


class Patches:
    """Rebind attributes and undo every rebinding, newest first."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        For a module-level function, every loaded ``repro`` module that
        holds the same object under the same name is rebound too, so
        callers that imported it by name see the wrapper.
        """
        original = getattr(owner, attr)
        wrapper = make(original)
        owners = [owner]
        if isinstance(owner, type(sys)):
            owners += [
                mod for name, mod in list(sys.modules.items())
                if name.startswith("repro") and mod is not owner
                and getattr(mod, attr, None) is original
            ]
        for o in owners:
            # An inherited method is undone by deleting the override.
            own = not isinstance(o, type) or attr in vars(o)
            self._undo.append((o, attr, original if own else None))
            setattr(o, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def trace_all(patches: Patches, tracer: Tracer) -> None:
    """Wrap every entry point in a span and watch every new SPMD world."""
    from repro.dist import World

    for name, owner, attr in entry_points():
        patches.replace(owner, attr, functools.partial(tracer.wrap, name))

    def make_init(init):
        @functools.wraps(init)
        def watched_init(world, *args, **kwargs):
            init(world, *args, **kwargs)
            tracer.watch(world)

        return watched_init

    patches.replace(World, "__init__", make_init)


def slow(patches: Patches, layer: str, factor: float) -> None:
    """Make every entry point of *layer* take *factor* times as long."""
    extra = factor - 1.0

    def make(fn):
        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                time.sleep(extra * (time.perf_counter() - t0))

        return slowed

    matched = [(owner, attr) for name, owner, attr in entry_points() if name == layer]
    if not matched:
        raise ValueError(f"no entry point for layer {layer!r}")
    for owner, attr in matched:
        patches.replace(owner, attr, make)


# -- aggregation ----------------------------------------------------------------


def layer_of(name: str) -> str:
    """Span name -> layer metric stem (collectives share one layer)."""
    return "dist.collective" if name.startswith("dist.collective.") else name


def summarize(tracer: Tracer, ops: range) -> dict[str, dict]:
    """Per-layer busy time, self time and call counts over *ops*.

    A span nested inside another span of the same layer (a ``Module``'s
    ``zero_grad`` recursing into children, say) is not counted again.
    Self time is a span's duration minus its direct children's.
    """
    spans = [s for s in tracer.spans if s[6] in ops]
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[4] in by_id:
            child_time[s[4]] += s[3] - s[2]
    out: dict[str, dict] = defaultdict(
        lambda: {"busy": 0.0, "self": 0.0, "calls": 0, "ranks": set()}
    )
    for s in spans:
        layer = layer_of(s[1])
        parent = by_id.get(s[4])
        nested = False
        while parent is not None:
            if layer_of(parent[1]) == layer:
                nested = True
                break
            parent = by_id.get(parent[4])
        dur = s[3] - s[2]
        row = out[layer]
        row["self"] += dur - child_time.get(s[0], 0.0)
        if not nested:
            row["busy"] += dur
            row["calls"] += 1
            row["ranks"].add(s[5])
    return dict(out)


def write_trace(tracer: Tracer, path: Path) -> None:
    """Write every span as one row ``[id, name, start_us, dur_us, parent,
    rank, op]`` (times from the first span), with the names listed once."""
    if not tracer.spans:
        return
    t0 = min(s[2] for s in tracer.spans)
    names = sorted({s[1] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [
        [s[0], index[s[1]], round((s[2] - t0) * 1e6, 1), round((s[3] - s[2]) * 1e6, 1),
         s[4], s[5], s[6]]
        for s in tracer.spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))
