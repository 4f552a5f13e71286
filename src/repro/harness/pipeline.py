"""Batched litmus-checking pipeline.

The experiment drivers (Tables 1 and 2, Figure 7, the axiom ablation)
all reduce to long lists of independent jobs: "would this litmus test be
observable on that machine?", "is this execution consistent under that
model?".  :class:`CheckPipeline` evaluates such job lists through one
shared cache layer:

* **synthesis cache** -- Table 1, Figure 7, and the ablation all consume
  the same synthesis run, which the work-stealing scheduler
  (:func:`~repro.harness.scheduler.synthesise_sharded`) computes once
  per ``(arch, max_events)`` on this pipeline's workers.
* **one submission primitive** -- :meth:`CheckPipeline.submit` queues
  a job and :meth:`CheckPipeline.next_result` returns the next finished
  one, inline (the default) or from a ``multiprocessing`` pool
  (``workers > 1``, or the ``REPRO_WORKERS`` environment variable).
  The work-stealing scheduler drives them directly;
  :meth:`CheckPipeline.map` is the ordered map the drivers and the
  fuzzer use on top of them, so verdicts are identical either way.
* **one cross-run store** -- with a ``cache`` directory
  (:mod:`repro.harness.verdict_cache`), every job
  :meth:`~CheckPipeline.map` completes is recorded under its stable
  digest (:func:`~repro.harness.checkpoint.job_digest`) as it lands,
  and the synthesis records its counts, chunks and finished shards.  A
  killed run restarted on the same directory resumes from what was
  recorded; a rerun of the same code replays it.  Nothing recorded
  under other code is served.
* **observability** -- per-job wall time, queue wait, and worker
  utilization land in :data:`repro.obs.REGISTRY` (both as timers and as
  log2 histograms with p50/p90/p99).  Pool workers accumulate
  per-process and ship deltas back with each result -- merge-on-join --
  and the payload carries the worker's finished span trees and profiler
  samples too: each job's span is grafted under the parent's open span
  tagged with the worker pid, so ``--stats`` and ``--trace`` show where
  worker time goes.
* **run-event log** -- with a store configured (or an explicit
  ``runlog`` path) the pipeline appends JSONL progress events
  (``run.start``/``run.batch``/``run.heartbeat``/``run.end`` with
  throughput and ETA) to ``events.jsonl`` in the store directory.

Jobs reference hardware and models *by name* so that worker processes
can rebuild them locally instead of pickling model objects; each worker
keeps a per-process registry.  A job's dropped axioms name a variant
that :func:`model_for` compiles from the registry model's cat source.
"""

from __future__ import annotations

import os
import time
from collections import deque
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable

from .._env import env_int
from ..cat import CatModel
from ..enumeration import SynthesisResult
from ..models import get_model
from ..obs import PROFILER, REGISTRY, TRACER, RunLog, reset_observability
from . import verdict_cache as _verdict_cache
from .checkpoint import job_digest

#: Seconds between ``run.heartbeat`` events while a batch drains.
_HEARTBEAT_SECONDS = 30.0

# ---------------------------------------------------------------------------
# Per-process registries (shared by the driver process and pool workers)
# ---------------------------------------------------------------------------

_HARDWARE_CACHE: dict[str, object] = {}
_MODEL_CACHE: dict[tuple[str, tuple[str, ...]], CatModel] = {}


def hardware_for(arch: str):
    """The simulated machine validating ``arch`` litmus tests."""
    machine = _HARDWARE_CACHE.get(arch)
    if machine is None:
        from ..sim import OracleHardware, TSOHardware

        if arch == "x86":
            machine = TSOHardware()
        elif arch == "power":
            machine = OracleHardware.power8(get_model("powertm"))
        elif arch == "armv8":
            machine = OracleHardware(get_model("armv8tm"), name="ARM-sim")
        elif arch == "sc":
            # Idealised sequentially-consistent machine: the TSC model
            # itself plays the hardware oracle, so the SC/TSC rows of
            # Table 1 can run through the same pipeline as the relaxed
            # architectures.
            machine = OracleHardware(get_model("tsc"), name="SC-sim")
        else:
            raise ValueError(f"no simulated hardware for {arch!r}")
        _HARDWARE_CACHE[arch] = machine
    return machine


def model_for(name: str, drop_axioms: tuple[str, ...] = ()) -> CatModel:
    """The registry model ``name`` without the axioms ``drop_axioms``
    (:meth:`repro.cat.Model.without`), cached per process.  A variant's
    ``baseline()`` is the registry model's."""
    key = (name, drop_axioms)
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = get_model(name)
        if drop_axioms:
            model = CatModel(model.model.without(drop_axioms), model.baseline())
        _MODEL_CACHE[key] = model
    return model


# ---------------------------------------------------------------------------
# Job evaluation (top-level so pool workers can unpickle it)
# ---------------------------------------------------------------------------


def run_job(job: tuple):
    """Evaluate one job tuple; the first element selects the kind.

    * ``("observable", arch, program, intended_co)`` → bool
    * ``("consistent", model_name, drop_axioms, execution)`` → bool
    * ``("violated", model_name, drop_axioms, execution)`` → list[str]

    Verdicts are always computed: only a store's job record answers
    a job without running it.
    """
    kind = job[0]
    if kind == "observable":
        _, arch, program, intended_co = job
        return hardware_for(arch).observable(program, intended_co)
    if kind == "consistent":
        _, name, drop, execution = job
        return model_for(name, drop).consistent(execution)
    if kind == "violated":
        _, name, drop, execution = job
        return model_for(name, drop).violated_axioms(execution)
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# Instrumented job invocation (inline path and pool workers)
# ---------------------------------------------------------------------------


def _job_kind(fn: Callable, item) -> str:
    """A stable name for one job -- its span is ``job:<kind>``, its
    store record's ``kind`` is ``<kind>``: the job-tuple kind when
    there is one, the function's name otherwise (fuzz cases)."""
    if isinstance(item, tuple) and item and isinstance(item[0], str):
        return item[0]
    return getattr(fn, "__name__", "call")


def _invoke(fn: Callable, item, submitted: float):
    """One instrumented job evaluation: queue wait and wall time.

    Each job runs inside its own span -- a child of the caller's open
    span on the inline path, a root span in a pool worker (shipped to
    the parent with the job's result).
    """
    start = time.monotonic()
    wait = start - submitted
    REGISTRY.timer("pipeline.job.queue_wait_seconds").observe(wait)
    REGISTRY.histogram("pipeline.job.queue_wait_seconds").observe(wait)
    with TRACER.span(f"job:{_job_kind(fn, item)}"):
        try:
            result = fn(item)
        except Exception:
            REGISTRY.counter("pipeline.jobs.failed").inc()
            raise
    elapsed = time.monotonic() - start
    REGISTRY.timer("pipeline.job.seconds").observe(elapsed)
    REGISTRY.histogram("pipeline.job.seconds").observe(elapsed)
    REGISTRY.counter("pipeline.jobs.completed").inc()
    return result


def _run_in_worker(fn: Callable, item, submitted: float) -> tuple:
    """One job in a pool worker, as ``(result, delta, error)``.

    ``delta`` bundles the worker's metrics delta, its finished span
    trees, its profiler samples, and its pid, so the parent can merge
    all of them even when the job failed; the parent re-raises
    ``error`` after merging.
    """
    try:
        result, error = _invoke(fn, item, submitted), None
    except Exception as caught:
        result, error = None, caught
    delta = {
        "pid": os.getpid(),
        "metrics": REGISTRY.flush_delta(),
        "spans": TRACER.flush_roots(),
        "profile": PROFILER.flush_delta(),
    }
    return result, delta, error


def _merge_worker_delta(delta: dict | None) -> None:
    """Fold one worker payload into the parent's registry, tracer (spans
    grafted under the open span, tagged by pid) and profiler."""
    if delta is None:
        return
    REGISTRY.merge(delta["metrics"])
    if delta["spans"]:
        TRACER.graft(delta["spans"], tags={"pid": delta["pid"]})
    PROFILER.merge(delta["profile"])


def _pool_worker_init() -> None:
    """Reset the worker's observability state after fork/spawn.

    A forked worker inherits a copy of the parent's registry, span roots
    and profiler samples; without a reset its first flush would
    re-report everything the parent had already accumulated.  (The
    profiler's *enabled* flag survives the reset via the
    ``REPRO_PROFILE`` environment variable, which ``--profile`` sets.)
    """
    reset_observability()


class CheckPipeline:
    """Evaluates checking jobs through shared caches.

    Args:
        workers: fan-out width.  ``None`` reads ``REPRO_WORKERS``
            (defaulting to sequential); ``0``/``1`` force inline
            evaluation; larger values use a ``multiprocessing`` pool.
        runlog: optional path for the JSONL run-event log.  ``None``
            derives ``<cache>/events.jsonl`` when a store is configured
            (no store, no log); ``False`` disables the log explicitly.
        cache: optional directory of the cross-run store
            (:mod:`repro.harness.verdict_cache`) that resumes killed
            runs and replays finished work; ``None`` opens none.  Only
            this (parent) process opens it, as the single writer; pool
            workers never touch it.
    """

    def __init__(
        self,
        workers: int | None = None,
        runlog: str | Path | None | bool = None,
        cache: str | Path | None = None,
    ):
        if workers is None:
            workers = env_int("REPRO_WORKERS", 1)
        self.workers = max(1, workers)
        self.verdict_cache = (
            _verdict_cache.configure(cache) if cache is not None else None
        )
        if runlog is None and cache is not None:
            runlog = Path(cache) / "events.jsonl"
        self.runlog = RunLog(runlog) if runlog else None
        self._jobs_done = 0
        self._last_heartbeat = time.monotonic()
        self._synthesis_cache: dict[tuple, SynthesisResult] = {}
        self._pool = None
        # Submitted jobs not yet returned by next_result: queued
        # (tag, fn, item, submitted) tuples inline; (tag, packed result)
        # pairs the pool's result thread posts to _finished otherwise.
        self._pending = 0
        self._inline: deque = deque()
        self._finished = None
        REGISTRY.gauge("pipeline.workers").set(self.workers)
        self.log_event(
            "run.start",
            workers=self.workers,
            cache=str(cache) if cache is not None else None,
            profile=PROFILER.enabled,
        )

    def log_event(self, type: str, **fields) -> None:
        """Append one event to the run log (no-op without one)."""
        if self.runlog is not None:
            self.runlog.event(type, **fields)

    def heartbeat(self, done: int, total: int, started: float) -> None:
        """Emit a throttled ``run.heartbeat`` with rate and ETA while a
        batch (or batched campaign) drains."""
        if self.runlog is None:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < _HEARTBEAT_SECONDS:
            return
        self._last_heartbeat = now
        elapsed = now - started
        rate = done / elapsed if elapsed > 0 else None
        eta = (total - done) / rate if rate else None
        self.log_event(
            "run.heartbeat",
            done=done,
            total=total,
            rate_per_s=round(rate, 3) if rate is not None else None,
            eta_seconds=round(eta, 1) if eta is not None else None,
        )

    # The pipeline owns one worker pool across batches; drivers issue
    # several small batches (one per test size), so per-batch pool
    # spawn/teardown would eat the fan-out benefit.

    def close(self) -> None:
        """Shut down the worker pool (no-op when sequential).

        Uses ``Pool.close()`` + ``join()`` -- a graceful drain -- rather
        than ``terminate()``, which can kill in-flight jobs mid-batch
        and leave a concurrently-submitted batch partially evaluated.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self.verdict_cache is not None:
            self.verdict_cache.close()
            self.verdict_cache = None
        if self.runlog is not None:
            self.log_event("run.end", jobs=self._jobs_done)
            self.runlog.close()
            self.runlog = None

    def __enter__(self) -> "CheckPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:
            pass

    # -- shared synthesis ------------------------------------------------

    def synthesis(self, arch: str, max_events: int) -> SynthesisResult:
        """Sharded synthesis for ``arch``, computed once per pipeline.

        Runs through the work-stealing scheduler
        (:func:`repro.harness.scheduler.synthesise_sharded`): the
        enumeration fans out across this pipeline's workers and resumes
        from and records into its store, with results byte-identical
        to the sequential :func:`repro.enumeration.synthesise`.
        """
        key = (arch, max_events)
        if key not in self._synthesis_cache:
            from .scheduler import synthesise_sharded

            self._synthesis_cache[key] = synthesise_sharded(
                arch, max_events, pipeline=self
            )
        return self._synthesis_cache[key]

    # -- job submission --------------------------------------------------

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        import multiprocessing
        import queue

        # Jobs reference hardware/models by name, so both start
        # methods are safe; prefer fork for lower start-up cost.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        # Forked workers inherit the store's segment handle, never to
        # touch it; it buffers nothing, since every record is flushed.
        self._pool = context.Pool(self.workers, initializer=_pool_worker_init)
        self._finished = queue.SimpleQueue()

    def submit(self, fn: Callable, item, tag=None) -> None:
        """Queue one job, ``fn(item)``; :meth:`next_result` returns
        ``(tag, value)`` once it has finished.

        ``fn`` must be a module-level callable when ``workers > 1``
        (pool workers import it by qualified name).  Inline pipelines
        run the job when :meth:`next_result` reaches it.
        """
        self._pending += 1
        submitted = time.monotonic()
        if self.workers <= 1:
            self._inline.append((tag, fn, item, submitted))
            return
        self._ensure_pool()

        def finished(packed) -> None:  # on the pool's result thread
            self._finished.put((tag, packed))

        self._pool.apply_async(
            _run_in_worker,
            (fn, item, submitted),
            callback=finished,
            error_callback=lambda error: finished((None, None, error)),
        )

    def next_result(self) -> tuple:
        """The next finished job as ``(tag, value)``.

        Inline, this runs the oldest queued job; with a pool it blocks
        until a worker finishes one (completion order) and merges the
        worker's metrics, spans and profile delta on this thread.  A
        job's error is re-raised here; the pipeline then discards every
        other outstanding job (an inline queue is dropped unrun, pool
        jobs are waited for), so it is idle and reusable afterwards.
        """
        if not self._pending:
            raise RuntimeError("next_result() with no job submitted")
        self._pending -= 1
        try:
            if self._inline:
                tag, fn, item, submitted = self._inline.popleft()
                return tag, _invoke(fn, item, submitted)
            tag, (value, delta, error) = self._finished.get()
            _merge_worker_delta(delta)
            if error is not None:
                raise error
            return tag, value
        except Exception:
            self._discard_pending()
            raise

    def _discard_pending(self) -> None:
        self._inline.clear()
        while self._pending:
            self._pending -= 1
            if self.workers > 1:
                _, (_, delta, _) = self._finished.get()
                _merge_worker_delta(delta)

    def map(self, fn: Callable, items: Iterable) -> list:
        """``[fn(item) for item in items]`` through :meth:`submit`.

        With a store open, an item whose ``kind`` (:func:`_job_kind`)
        and :func:`~repro.harness.checkpoint.job_digest` are recorded is
        answered from it, and each other result is recorded as it
        lands, so a crash mid-batch loses only the jobs in flight;
        results must then be JSON-serialisable.  Results come back in
        submission order.
        """
        items = list(items)
        results: list = [None] * len(items)
        pending = list(range(len(items)))
        store = self.verdict_cache
        if store is not None and items:
            kinds = [_job_kind(fn, item) for item in items]
            digests = [job_digest(item) for item in items]
            pending = []
            for index, (kind, digest) in enumerate(zip(kinds, digests)):
                recorded = store.recorded(kind)
                if digest in recorded:
                    results[index] = recorded[digest]
                else:
                    pending.append(index)
            REGISTRY.counter("pipeline.checkpoint.lookups").inc(len(items))
            REGISTRY.counter("pipeline.checkpoint.hits").inc(
                len(items) - len(pending)
            )
            REGISTRY.counter("pipeline.checkpoint.misses").inc(len(pending))
            if not pending:
                return results
        with TRACER.span("pipeline.batch"), REGISTRY.timed(
            "pipeline.batch.seconds"
        ):
            busy_before = REGISTRY.timer("pipeline.job.seconds").total
            started = time.monotonic()
            # A pool takes the whole batch at once; inline, each job is
            # queued just before it runs, so queue wait stays dispatch
            # latency.
            backlog = iter(pending)
            ahead = len(pending) if self.workers > 1 else 1
            for index in islice(backlog, ahead):
                self.submit(fn, items[index], index)
            for done in range(1, len(pending) + 1):
                index, result = self.next_result()
                if store is not None:
                    store.record(kinds[index], digests[index], result)
                results[index] = result
                for following in islice(backlog, 1):
                    self.submit(fn, items[following], following)
                self.heartbeat(done, len(pending), started)
            wall = time.monotonic() - started
            if wall > 0 and pending:
                busy = REGISTRY.timer("pipeline.job.seconds").total - busy_before
                REGISTRY.gauge("pipeline.worker_utilization").set(
                    min(1.0, busy / (wall * self.workers))
                )
        self._jobs_done += len(pending)
        if pending:
            self.log_event(
                "run.batch",
                jobs=len(pending),
                seconds=round(wall, 4),
                rate_per_s=round(len(pending) / wall, 3) if wall > 0 else None,
            )
        return results
