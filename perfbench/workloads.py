"""The three workloads: what one operation is, its seeded inputs, its checks.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has finished.  A workload exposes

* ``setup()`` -- one set-up: build what the operation needs and run the
  first, untimed operation;
* ``run_op(tracer)`` -> :class:`Outcome` -- one timed operation;
* ``checks()`` -- output checks after the run, as a list of errors;
* ``figures()`` -- the workload's own end-to-end figures (name -> (value,
  unit));
* ``layer_counts(tracer, ops)`` -- per-layer counts read from the
  program's counters over the traced operations *ops*.

The program receives only inputs generated here from the workload seed.
"""

from __future__ import annotations

import itertools
import math
import queue
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import DCHAG, DCHAGConfig
from repro.data import DataLoader, HyperspectralConfig, HyperspectralDataset
import repro.dist
from repro.dist import run_spmd_world
from repro.elastic import ElasticSupervisor, FailurePlan, fsdp_training_segment
from repro.elastic import checkpoint as ckpt
from repro.models import MAEModel, build_serial_mae
from repro.nn import ViTEncoder
from repro.obs.store import SweepStore
from repro.parallel import DeviceMesh
import repro.perf as perf
from repro.perf import frontier, named_model, simulated_overlaps
from repro.perf.throughput import max_batch_per_replica
from repro.tensor import FlopCounter, MemoryTracker, count_flops, track_memory
from repro.train import TrainConfig, Trainer

from tracing import Patches, Tracer, thread_rank

MACHINE = frontier()


@dataclass
class Outcome:
    seconds: float  # wall time of the operation
    items: int  # samples trained, or candidate plans ranked
    failed: int = 0  # of the workload's ATTEMPTS_PER_OP


class Workload:
    """Defaults for the hooks a workload may leave out."""

    ATTEMPTS_PER_OP = 1  # client operations one ``run_op`` call attempts

    def trace_begin(self, tracer: Tracer, patches: Patches) -> None:
        """Wrap what only this workload can reach before tracing starts."""

    def track_step(self, tracer: Tracer) -> None:
        """Count allocations and FLOPs of one step of the next operation."""

    def restart_inputs(self) -> None:
        """Serve the seeded inputs again from the first one."""

    def layer_counts(self, tracer: Tracer, ops: range) -> dict:
        return {}

    def units(self, tracer: Tracer, ops: range) -> int:
        """What per-layer figures are divided by: steps or requests."""
        return len(ops)

    def close(self) -> None:
        pass


# -- train_dchag ---------------------------------------------------------------


class TrainDCHAG(Workload):
    """One ``Trainer.step`` of D-CHAG MAE pretraining per operation.

    The world's ranks live for the whole run and wait for commands; the
    client draws each batch through ``repro.data`` and hands it to every
    rank, so both TP ranks train on the same images.
    """

    name = "train_dchag"
    C, IMAGE, PATCH, DIM, DEPTH, HEADS, BATCH = 128, 32, 4, 64, 4, 4, 8
    COUNT_OPS = 1  # every step moves the same bytes; counts read one step

    def __init__(self, seed: int, scratch: Path | None, tp: int = 2) -> None:
        self.seed, self.tp = seed, tp
        self.dataset = HyperspectralDataset(
            HyperspectralConfig(
                channels=self.C, height=self.IMAGE, width=self.IMAGE,
                n_images=64, seed=seed,
            )
        )
        self.mask_rng = np.random.default_rng(seed + 1)
        self._thread: threading.Thread | None = None
        self.memory: dict[int, tuple[int, int, int, int]] = {}  # rank -> counts
        self._track_next = False

    # -- the world ---------------------------------------------------------
    def _rank_main(self, comm):
        try:
            mesh = DeviceMesh(comm, tp=self.tp)
            cfg = DCHAGConfig(
                channels=self.C, patch=self.PATCH, dim=self.DIM, heads=self.HEADS,
                kind="linear",
            )
            frontend = DCHAG(comm, mesh.tp_group, cfg, rng_seed=self.seed)
            shared = np.random.default_rng(self.seed)
            model = MAEModel(
                frontend, ViTEncoder(self.DIM, self.DEPTH, self.HEADS, shared),
                num_tokens=(self.IMAGE // self.PATCH) ** 2, dim=self.DIM,
                patch=self.PATCH, out_channels=self.C, rng=shared,
                mask_ratio=0.75, decoder_depth=2,
            )
            trainer = Trainer(
                model,
                TrainConfig(lr=2e-3, total_steps=100_000, warmup_steps=5),
                grad_hook=lambda: repro.dist.average_gradients(
                    comm, model.parameters(), group=mesh.dp_group
                ),
            )
            self.trainers[comm.rank] = trainer
            self.world = comm.world
            self._done.put((comm.rank, "ready", None))
            commands = self._commands[comm.rank]
            while True:
                cmd = commands.get()
                if cmd is None:
                    return
                images, mask_seed, track = cmd
                rng = np.random.default_rng(mask_seed)
                t0 = time.perf_counter()
                if track:
                    tracker, flops = MemoryTracker(), FlopCounter()
                    with track_memory(tracker), count_flops(flops):
                        loss = trainer.step(images, rng)
                    s = tracker.stats()
                    self.memory[comm.rank] = (
                        s.allocation_count, s.total_allocated, s.peak, flops.total
                    )
                else:
                    loss = trainer.step(images, rng)
                self._done.put((comm.rank, time.perf_counter() - t0, loss))
        except BaseException:
            self._done.put((comm.rank, "dead", None))
            raise

    def _start(self) -> None:
        self._commands = [queue.Queue() for _ in range(self.tp)]
        self._done: queue.Queue = queue.Queue()
        self.trainers: dict[int, Trainer] = {}
        self._error: list[BaseException] = []

        def host():
            try:
                run_spmd_world(self._rank_main, self.tp, timeout=3600)
            except BaseException as exc:  # reported through the failed op
                self._error.append(exc)

        self._thread = threading.Thread(target=host, name="train-dchag-world")
        self._thread.start()
        for _ in range(self.tp):
            if self._done.get(timeout=120)[1] != "ready":
                raise RuntimeError(f"world failed to start: {self._error}")

    def close(self) -> None:
        if self._thread is not None:
            for q in self._commands:
                q.put(None)
            self._thread.join(timeout=120)
            self._thread = None

    def setup(self) -> None:
        self.batches = self._batches()
        self._start()
        self.run_op(None)

    def _batches(self):
        loader = DataLoader(
            self.dataset, self.BATCH, shuffle=True, rng=np.random.default_rng(self.seed)
        )
        while True:
            yield from loader

    # -- one operation -----------------------------------------------------
    def run_op(self, tracer: Tracer | None, track: bool = False) -> Outcome:
        if self._thread is None:
            raise RuntimeError("train_dchag: the world is not running")
        track, self._track_next = track or self._track_next, False
        if tracer is None:
            images = next(self.batches)
        else:
            with tracer.span("data.batch"):
                images = next(self.batches)
        mask_seed = int(self.mask_rng.integers(2**31))
        for q in self._commands:
            q.put((images, mask_seed, track))
        seconds, losses = [], []
        for _ in range(self.tp):
            rank, took, loss = self._done.get(timeout=600)
            if took == "dead":
                self.close()
                raise RuntimeError(f"rank {rank} died: {self._error}")
            seconds.append(took)
            losses.append(loss)
        if tracer is not None:
            tracer.add("dist.rank_skew", max(seconds) - min(seconds))
        if not all(math.isfinite(v) for v in losses):
            return Outcome(max(seconds), 0, failed=1)
        return Outcome(max(seconds), self.BATCH)

    def trace_begin(self, tracer: Tracer, patches: Patches) -> None:
        tracer.watch(self.world)
        for trainer in self.trainers.values():
            # The clip function is bound when the Trainer is built, before
            # tracing starts, so it is wrapped on the instance.
            patches.replace(trainer, "clip_fn", lambda fn: tracer.wrap("tensor.clip", fn))

    def track_step(self, tracer: Tracer) -> None:
        self._track_next = True

    def checks(self) -> list[str]:
        errors = []
        histories = [self.trainers[r].result.losses for r in sorted(self.trainers)]
        for rank, losses in enumerate(histories[1:], start=1):
            if losses != histories[0]:
                errors.append(f"train_dchag: TP rank {rank} loss differs from rank 0")
        losses = histories[0]
        if not all(math.isfinite(v) for v in losses):
            errors.append("train_dchag: non-finite loss")
        w = max(1, min(5, len(losses) // 2))
        first, last = statistics.fmean(losses[:w]), statistics.fmean(losses[-w:])
        if not last < first:
            errors.append(f"train_dchag: loss did not fall ({first:.5f} -> {last:.5f})")
        return errors

    def figures(self) -> dict:
        return {"final_loss": (self.trainers[0].result.losses[-1], "loss")}

    def layer_counts(self, tracer: Tracer, ops: range) -> dict:
        return {**memory_counts(self.memory), "tensor.peak_bytes_tp1": peak_bytes_tp1(self.seed)}


def memory_counts(memory: dict) -> dict:
    """Mean per-rank allocation counters of one tracked step."""
    if not memory:
        return {}
    rows = list(memory.values())
    return {
        "tensor.alloc_count": statistics.fmean(r[0] for r in rows),
        "tensor.alloc_bytes": statistics.fmean(r[1] for r in rows),
        "tensor.peak_bytes": statistics.fmean(r[2] for r in rows),
        "tensor.flops": statistics.fmean(r[3] for r in rows),
    }


def peak_bytes_tp1(seed: int) -> float:
    """Per-rank peak tensor bytes of one train_dchag step on a single rank."""
    single = TrainDCHAG(seed, None, tp=1)
    single.batches = single._batches()
    single._start()
    try:
        single.run_op(None, track=True)
    finally:
        single.close()
    return float(single.memory[0][2])


# -- train_elastic --------------------------------------------------------------


class TrainElastic(Workload):
    """One scripted elastic FSDP run per operation.

    Two ranks train an FSDP-sharded MAE with the batch split across them
    and a blocking sharded save every ``EVERY`` steps.  Rank 1 is killed at
    ``KILL`` and returns at ``REJOIN``; the supervisor shrinks, reshards and
    resumes, then grows back.  Recovery times and rank skew come from the
    benchmark's own ``batch_fn`` timestamps.
    """

    name = "train_elastic"
    C, IMAGE, PATCH, DIM, DEPTH, HEADS, BATCH = 16, 16, 4, 48, 2, 4, 8
    STEPS, EVERY, KILL, REJOIN, WORLD = 30, 4, 14, 22, 2
    COUNT_OPS = 1
    ATTEMPTS_PER_OP = STEPS

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed, self.scratch = seed, scratch
        pool = HyperspectralDataset(
            HyperspectralConfig(
                channels=self.C, height=self.IMAGE, width=self.IMAGE,
                n_images=4 * self.BATCH, seed=seed,
            )
        )
        self.images = pool.batch(range(len(pool)))
        order = np.random.default_rng(seed)
        self.rows = [order.choice(len(pool), self.BATCH, replace=False) for _ in range(self.STEPS)]
        self.config = TrainConfig(
            lr=3e-3, total_steps=self.STEPS, warmup_steps=2, checkpoint_every=self.EVERY
        )
        self.plan = FailurePlan.kill(1, self.KILL, "injected failure").rejoin(self.REJOIN)
        self.results = []
        self.recoveries: list[float] = []
        self._local = threading.local()
        self._n = 0
        self.memory: dict[int, tuple] = {}
        self._track: int | None = None

    def _module(self):
        return build_serial_mae(
            channels=self.C, image=self.IMAGE, patch=self.PATCH, dim=self.DIM,
            depth=self.DEPTH, heads=self.HEADS, rng=np.random.default_rng(self.seed),
            mask_ratio=0.5,
        )

    def _batch_fn(self, step: int):
        self._stamps.append((self._local.attempt, thread_rank(), step, time.perf_counter()))
        return self.images[self.rows[step]], np.random.default_rng(self.seed * 1000 + step)

    def _segment(self, inner):
        worlds: list = []  # one per attempt; held so no id() is reused
        lock = threading.Lock()

        def segment(comm, start_step, resume_dir):
            with lock:
                if comm.world not in worlds:
                    worlds.append(comm.world)
                self._local.attempt = worlds.index(comm.world)
            losses = inner(comm, start_step, resume_dir)
            self._stamps.append((self._local.attempt, comm.rank, "end", time.perf_counter()))
            return losses

        return segment

    def _run(self, world: int, plan, root: Path):
        self._stamps: list[tuple] = []
        segment = fsdp_training_segment(
            self._module, self._batch_fn, self.config, root, shard_batch=True
        )
        sup = ElasticSupervisor(self._segment(segment), root, world, timeout=120)
        try:
            return sup.run(self.STEPS, failure_plan=plan)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def setup(self) -> None:
        self.run_op(None)

    def run_op(self, tracer: Tracer | None) -> Outcome:
        self._n += 1
        t0 = time.perf_counter()
        res = self._run(self.WORLD, self.plan, self.scratch / f"elastic-{self._n}")
        took = time.perf_counter() - t0
        self.results.append(res)
        # Per (attempt, step): each rank's time to its next batch_fn call.
        by_rank: dict[tuple, list] = {}
        for attempt, rank, step, t in self._stamps:
            by_rank.setdefault((attempt, rank), []).append((t, step))
        step_times: dict[tuple, list[float]] = {}
        bounds: dict[int, list[float]] = {}
        for (attempt, _rank), marks in by_rank.items():
            marks.sort()
            for (t, step), (t_next, _) in zip(marks, marks[1:]):
                step_times.setdefault((attempt, step), []).append(t_next - t)
            ts = bounds.setdefault(attempt, [math.inf, -math.inf])
            ts[0], ts[1] = min(ts[0], marks[0][0]), max(ts[1], marks[-1][0])
        # Recovery: last stamp of a broken attempt -> first of the next one.
        for a in range(len(bounds) - 1):
            self.recoveries.append(bounds[a + 1][0] - bounds[a][1])
        if tracer is not None:
            tracer.add("elastic.steps_lost", sum(max(0, e.steps_lost) for e in res.recoveries))
            tracer.add("elastic.reshard_bytes", res.total_reshard_bytes)
            tracer.add("elastic.steps", len(step_times))
            tracer.add("dist.rank_skew", sum(max(v) - min(v) for v in step_times.values()))
        ok = all(math.isfinite(v) for v in res.losses) and len(res.losses) == self.STEPS
        return Outcome(
            took, self.STEPS * self.BATCH if ok else 0, failed=0 if ok else self.STEPS,
        )

    def trace_begin(self, tracer: Tracer, patches: Patches) -> None:
        def counted(save):
            def save_and_count(*args, **kwargs):
                step_dir = save(*args, **kwargs)
                if thread_rank() == 0:
                    tracer.add("elastic.save_bytes", ckpt.checkpoint_nbytes(step_dir))
                return step_dir

            return save_and_count

        patches.replace(ckpt, "save_sharded", counted)

        def tracked(step):
            def step_tracked(trainer, *batch):
                if tracer.op != self._track or trainer.step_index != 2:
                    return step(trainer, *batch)
                tracker, flops = MemoryTracker(), FlopCounter()
                with track_memory(tracker), count_flops(flops):
                    loss = step(trainer, *batch)
                s = tracker.stats()
                self.memory[thread_rank()] = (
                    s.allocation_count, s.total_allocated, s.peak, flops.total
                )
                return loss

            return step_tracked

        patches.replace(Trainer, "step", tracked)

    def track_step(self, tracer: Tracer) -> None:
        """Track step 2 of the next operation on every rank."""
        self._track = tracer.op

    def checks(self) -> list[str]:
        ref = self._run(1, None, self.scratch / "elastic-reference")
        errors = []
        for i, res in enumerate(self.results):
            kinds = [e.kind for e in res.recoveries]
            if kinds != ["shrink", "grow"]:
                errors.append(f"train_elastic: run {i} recovered as {kinds}")
            if len(res.losses) != len(ref.losses) or not np.allclose(
                res.losses, ref.losses, rtol=1e-4, atol=1e-6
            ):
                errors.append(f"train_elastic: run {i} trajectory differs from the single-worker run")
        return errors

    def figures(self) -> dict:
        return {
            "final_loss": (self.results[-1].final_loss, "loss"),
            "recovery_s": (statistics.median(self.recoveries), "s"),
        }

    def units(self, tracer: Tracer, ops: range) -> int:
        return int(sum(tracer.counts.get((op, "elastic.steps"), 0) for op in ops))

    def layer_counts(self, tracer: Tracer, ops: range) -> dict:
        out = memory_counts(self.memory)
        steps = self.units(tracer, ops)
        for name in ("elastic.save_bytes", "elastic.reshard_bytes", "elastic.steps_lost"):
            out[name] = sum(tracer.counts.get((op, name), 0) for op in ops) / steps
        return out


# -- plan_search ----------------------------------------------------------------

MODELS = ("100M", "1B", "3B", "7B", "15B", "26B")

# The §6.2 point and the podium the autotuner's golden test pins for it
# (``selftest.py schema`` checks that the two agree).
SEC62 = ("7B", 500, 1024, 4096)
SEC62_TOP3 = [
    "D-CHAG-L-Tree0x4+DP256",
    "D-CHAG-L-Tree0x2+DP512",
    "D-CHAG-L-Tree0x4+FSDP2+DP128",
]


def balanced_passes(models: tuple, points: list, rng: np.random.Generator):
    """Requests in passes that serve every point of *points* once and every
    model equally often (``len(points)`` is a multiple of ``len(models)``).

    The seed decides the order of the points and which model each one is
    paired with; the multiset of models and of points in a pass is the
    same for every seed.  Request cost depends mostly on these, so every
    run, whatever its seed, serves the same cost mix, and its latency
    percentiles move with the program and the host, not with the draw.
    """
    assert len(points) % len(models) == 0, "a pass must serve the models equally"
    while True:
        order = rng.permutation(len(points))
        owners = rng.permutation(len(points)) % len(models)
        for i, m in zip(order, owners):
            yield (models[m], *points[i])


def is_ranked(ranking) -> bool:
    return all(a.total_tflops >= b.total_tflops for a, b in zip(ranking, ranking[1:]))


class PlanSearch(Workload):
    """One cold §6.2-style search with a fresh overlap oracle per request.

    Each search is recorded in a fresh ``SweepStore`` as it ranks, and its
    podium is read back from the store, so the request's latency covers
    the obs-store write and read beside the planner's work.  A store that
    held every search of the run would make each read slower than the last
    (``latest_run`` sorts every recorded run), tying the latency to how
    many requests the run got through.
    """

    name = "plan_search"
    # (channels, GPUs, samples per GPU); every point is feasible for every model.
    GRID = list(itertools.product((128, 256, 500), (64, 128, 256, 512, 1024), (1, 2, 4, 8)))
    COUNT_OPS = 32

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed, self.scratch = seed, scratch
        self.restart_inputs()
        self.pairs: set = set()
        self.repeats = self.served = 0
        self.winners: list[float] = []
        self.errors: list[str] = []
        self._memo = max_batch_per_replica.cache_info()

    def restart_inputs(self) -> None:
        self.requests = balanced_passes(MODELS, self.GRID, np.random.default_rng(self.seed))

    def setup(self) -> None:
        self.run_op(None)
        self._memo = max_batch_per_replica.cache_info()

    def run_op(self, tracer: Tracer | None) -> Outcome:
        name, channels, gpus, per_gpu = next(self.requests)
        model = named_model(name)
        tag = f"search-{self.served}-{name}-ch{channels}-g{gpus}-b{gpus * per_gpu}"
        path = self.scratch / "search.db"
        t0 = time.perf_counter()
        oracle = simulated_overlaps(MACHINE, model, channels)
        if tracer is not None:
            oracle = tracer.wrap("perf.oracle", oracle)
        with SweepStore(path) as store:
            ranking = perf.search_configurations(
                model, channels, gpus, MACHINE, gpus * per_gpu, overlaps=oracle,
                prune_top_k=3, store=store, store_name=tag,
            )
            stored = store.top_plans(limit=3)
        took = time.perf_counter() - t0
        files = list(self.scratch.glob(f"{path.name}*"))
        if tracer is not None:
            tracer.add("obs.store_bytes", sum(p.stat().st_size for p in files))
        for p in files:
            p.unlink()
        self.served += 1
        self.repeats += (name, channels) in self.pairs
        self.pairs.add((name, channels))
        if tracer is not None:
            tracer.add("perf.candidates", len(ranking))
        if not ranking:
            return Outcome(took, 0, failed=1)
        if not is_ranked(ranking):
            self.errors.append(f"plan_search: ranking for {tag} not sorted")
        got = [(p.label, p.total_tflops) for p in stored]
        want = [(t.plan.label, t.total_tflops) for t in ranking[:3]]
        if got != want:
            self.errors.append(f"plan_search: {tag} stored podium {got} != {want}")
        self.winners.append(ranking[0].total_tflops)
        return Outcome(took, len(ranking))

    def checks(self) -> list[str]:
        name, channels, gpus, batch = SEC62
        model = named_model(name)
        ranking = perf.search_configurations(
            model, channels, gpus, MACHINE, batch,
            overlaps=simulated_overlaps(MACHINE, model, channels), prune_top_k=3,
        )
        podium = [t.plan.label for t in ranking[:3]]
        errors = list(self.errors)
        if podium != SEC62_TOP3:
            errors.append(f"plan_search: §6.2 podium {podium} != {SEC62_TOP3}")
        return errors

    def figures(self) -> dict:
        info = max_batch_per_replica.cache_info()
        hits, misses = info.hits - self._memo.hits, info.misses - self._memo.misses
        return {
            "modeled_tflops": (statistics.fmean(self.winners), "TFLOP/s"),
            "repeat_share": (self.repeats / self.served, "ratio"),
            "fit_memo_hit_ratio": (hits / max(1, hits + misses), "ratio"),
        }

    def layer_counts(self, tracer: Tracer, ops: range) -> dict:
        return {
            name: sum(tracer.counts.get((op, name), 0) for op in ops) / len(ops)
            for name in ("perf.candidates", "obs.store_bytes")
        }


WORKLOADS = {w.name: w for w in (TrainDCHAG, TrainElastic, PlanSearch)}
