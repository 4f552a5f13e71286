"""Batched litmus-checking pipeline.

The experiment drivers (Tables 1 and 2, Figure 7, the axiom ablation)
all reduce to long lists of independent jobs: "would this litmus test be
observable on that machine?", "is this execution consistent under that
model?".  :class:`CheckPipeline` evaluates such job lists through one
shared cache layer:

* **synthesis cache** -- Table 1, Figure 7, and the ablation all consume
  the same :func:`~repro.enumeration.synthesise` run; the pipeline
  computes it once per ``(arch, max_events, time_budget)``.
* **batched evaluation** -- jobs are submitted as a list and evaluated
  in order, either sequentially (the default) or fanned out across a
  ``multiprocessing`` pool (``workers > 1``, or the
  ``REPRO_WORKERS`` environment variable).  Results are
  returned in submission order, so verdicts are identical either way.
* **checkpoint/resume** -- with a ``checkpoint`` path, every completed
  job appends one JSONL record keyed by its stable digest
  (:func:`~repro.harness.checkpoint.job_digest`); a restarted run skips
  the recorded jobs and re-evaluates only the remainder, incrementally
  (records land as each job finishes, not when the batch does).
* **retry/backoff + observability** -- failing jobs retry with
  exponential backoff, slow jobs are flagged against a soft timeout,
  and per-job wall time, queue wait, and worker utilization land in
  :data:`repro.obs.REGISTRY` (both as timers and as log2 histograms
  with p50/p90/p99).  Pool workers accumulate per-process and ship
  deltas back with each result -- merge-on-join -- and the payload now
  carries the worker's finished span trees and profiler samples too:
  each job's span is grafted under the parent's open ``pipeline.batch``
  span tagged with the worker pid, so ``--stats`` and ``--trace``
  finally show where worker time goes.
* **run-event log** -- with a checkpoint configured (or an explicit
  ``runlog`` path) the pipeline appends JSONL progress events
  (``run.start``/``run.batch``/``run.heartbeat``/``run.end`` with
  throughput and ETA) next to the checkpoint file.

Jobs reference hardware and models *by name* so that worker processes
can rebuild them locally instead of pickling model objects; each worker
keeps a per-process registry.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .._env import env_float, env_int
from ..enumeration import SynthesisResult
from ..models import get_model
from ..models.base import MemoryModel
from ..obs import PROFILER, REGISTRY, TRACER, RunLog, reset_observability
from . import verdict_cache as _verdict_cache
from .checkpoint import CheckpointStore, job_digest

#: Seconds between ``run.heartbeat`` events while a batch drains.
_HEARTBEAT_SECONDS = 30.0

# ---------------------------------------------------------------------------
# Per-process registries (shared by the driver process and pool workers)
# ---------------------------------------------------------------------------

_HARDWARE_CACHE: dict[str, object] = {}
_MODEL_CACHE: dict[tuple[str, tuple[str, ...]], MemoryModel] = {}


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


def model_for(name: str, drop_axioms: tuple[str, ...] = ()) -> MemoryModel:
    """A (possibly axiom-filtered) model instance, cached per process."""
    key = (name, drop_axioms)
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = get_model(name)
        if drop_axioms:
            from ..sim import FilteredModel

            model = FilteredModel(model, drop_axioms=drop_axioms)
        _MODEL_CACHE[key] = model
    return model


# ---------------------------------------------------------------------------
# Job evaluation (top-level so pool workers can unpickle it)
# ---------------------------------------------------------------------------


#: (model name, dropped axioms) → stable model digest (or None when the
#: model cannot be digested and the verdict cache must be bypassed).
_MODEL_DIGEST_CACHE: dict[tuple[str, tuple[str, ...]], str | None] = {}


def _model_digest_for(name: str, drop_axioms: tuple[str, ...]) -> str | None:
    key = (name, drop_axioms)
    if key not in _MODEL_DIGEST_CACHE:
        from ..ir import model_digest

        _MODEL_DIGEST_CACHE[key] = model_digest(model_for(name, drop_axioms))
    return _MODEL_DIGEST_CACHE[key]


def _cached_verdict(kind: str, name: str, drop: tuple, execution):
    """A model verdict, answered from the active verdict cache when the
    model has a stable digest; computed (and recorded) otherwise."""
    model = model_for(name, drop)
    compute = (
        model.consistent if kind == "consistent" else model.violated_axioms
    )
    cache = _verdict_cache.active()
    if cache is None:
        return compute(execution)
    model_dig = _model_digest_for(name, drop)
    if model_dig is None:
        return compute(execution)
    exec_dig = _verdict_cache.execution_digest(execution)
    hit, verdict = cache.lookup(model_dig, exec_dig, kind)
    if hit:
        return bool(verdict) if kind == "consistent" else list(verdict)
    verdict = compute(execution)
    cache.record(model_dig, exec_dig, kind, verdict)
    return verdict


def run_job(job: tuple):
    """Evaluate one job tuple; the first element selects the kind.

    * ``("observable", arch, program, intended_co)`` → bool
    * ``("consistent", model_name, drop_axioms, execution)`` → bool
    * ``("violated", model_name, drop_axioms, execution)`` → list[str]

    Model verdicts (``consistent``/``violated``) go through the
    process-active verdict cache when one is configured; hardware
    observability runs the operational machines and is never cached.
    """
    kind = job[0]
    if kind == "observable":
        _, arch, program, intended_co = job
        return hardware_for(arch).observable(program, intended_co)
    if kind in ("consistent", "violated"):
        _, name, drop, execution = job
        return _cached_verdict(kind, name, drop, execution)
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# Instrumented, retrying job invocation (sequential path and pool workers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobPolicy:
    """Retry and soft-timeout policy for one pipeline's jobs.

    ``retries`` failing attempts re-run with exponential backoff
    (``backoff * 2**attempt`` seconds); a job slower than
    ``soft_timeout`` seconds is *flagged* (counter
    ``pipeline.jobs.soft_timeouts``), not killed -- verdicts stay
    deterministic, and the flag tells the operator which batches need a
    tighter bound or more workers.
    """

    retries: int = 0
    backoff: float = 0.05
    soft_timeout: float | None = None


def _job_span_name(fn: Callable, item) -> str:
    """A stable span name for one job: the job-tuple kind when there is
    one, the mapped function's name otherwise (fuzz cases)."""
    if isinstance(item, tuple) and item and isinstance(item[0], str):
        return f"job:{item[0]}"
    return f"job:{getattr(fn, '__name__', 'call')}"


def _invoke_with_policy(fn: Callable, item, submitted: float, policy: JobPolicy):
    """One instrumented job evaluation: queue wait, retries, wall time.

    Each job runs inside its own span -- a child of the open
    ``pipeline.batch`` span on the sequential path, a root span in a
    pool worker (shipped to the parent with the job's result).
    """
    start = time.monotonic()
    wait = start - submitted
    REGISTRY.timer("pipeline.job.queue_wait_seconds").observe(wait)
    REGISTRY.histogram("pipeline.job.queue_wait_seconds").observe(wait)
    attempt = 0
    with TRACER.span(_job_span_name(fn, item)):
        while True:
            try:
                result = fn(item)
                break
            except Exception:
                if attempt >= policy.retries:
                    REGISTRY.counter("pipeline.jobs.failed").inc()
                    raise
                REGISTRY.counter("pipeline.jobs.retries").inc()
                time.sleep(policy.backoff * (2**attempt))
                attempt += 1
    elapsed = time.monotonic() - start
    REGISTRY.timer("pipeline.job.seconds").observe(elapsed)
    REGISTRY.histogram("pipeline.job.seconds").observe(elapsed)
    REGISTRY.counter("pipeline.jobs.completed").inc()
    if policy.soft_timeout is not None and elapsed > policy.soft_timeout:
        REGISTRY.counter("pipeline.jobs.soft_timeouts").inc()
    return result


class _PoolTask:
    """The picklable callable shipped to pool workers.

    Returns ``(result, delta, error)`` where ``delta`` bundles the
    worker's metrics delta, its finished span trees, its profiler
    samples, and its pid, so the parent can merge all of them even when
    the job failed; the parent re-raises ``error`` after merging.
    """

    __slots__ = ("fn", "policy")

    def __init__(self, fn: Callable, policy: JobPolicy):
        self.fn = fn
        self.policy = policy

    def _delta(self) -> dict:
        cache = _verdict_cache.active()
        return {
            "pid": os.getpid(),
            "metrics": REGISTRY.flush_delta(),
            "spans": TRACER.flush_roots(),
            "profile": PROFILER.flush_delta(),
            "verdicts": cache.flush_pending() if cache is not None else (),
        }

    def __call__(self, packed):
        submitted, item = packed
        try:
            result = _invoke_with_policy(self.fn, item, submitted, self.policy)
            return result, self._delta(), None
        except Exception as error:
            return None, self._delta(), error


def _merge_worker_delta(delta: dict, cache=None) -> None:
    """Fold one worker payload into the parent's registry, tracer (spans
    grafted under the open ``pipeline.batch`` span, tagged by pid),
    profiler, and -- when the pipeline owns a verdict ``cache`` -- the
    cache (the worker's freshly computed verdicts get persisted)."""
    REGISTRY.merge(delta["metrics"])
    spans = delta.get("spans")
    if spans:
        TRACER.graft(spans, tags={"pid": delta["pid"]})
    PROFILER.merge(delta.get("profile"))
    verdicts = delta.get("verdicts")
    if cache is not None and verdicts:
        cache.absorb(verdicts)


def _pool_worker_init() -> None:
    """Reset the worker's observability state after fork/spawn.

    A forked worker inherits a copy of the parent's registry, span roots
    and profiler samples; without a reset its first flush would
    re-report everything the parent had already accumulated.  (The
    profiler's *enabled* flag survives the reset via the
    ``REPRO_PROFILE`` environment variable, which ``--profile`` sets;
    the verdict cache is likewise named by ``REPRO_CACHE``: a forked
    worker keeps the parent's loaded entries, read-only, and a spawned
    one reloads them.)
    """
    reset_observability()
    _verdict_cache.worker_init()


class CheckPipeline:
    """Evaluates batches of checking jobs through shared caches.

    Args:
        workers: fan-out width.  ``None`` reads ``REPRO_WORKERS``
            (defaulting to sequential); ``0``/``1`` force sequential
            evaluation; larger values use a ``multiprocessing`` pool.
        checkpoint: optional path to a JSONL checkpoint file.  Completed
            jobs append one record each; a restarted pipeline pointed at
            the same file skips them (see :mod:`repro.harness.checkpoint`).
        retries / retry_backoff / soft_timeout: per-job
            :class:`JobPolicy` knobs.  ``None`` reads the
            ``REPRO_RETRIES`` / ``REPRO_BACKOFF`` /
            ``REPRO_SOFT_TIMEOUT`` environment variables.
        runlog: optional path for the JSONL run-event log.  ``None``
            derives ``<checkpoint stem>.events.jsonl`` next to the
            checkpoint file when one is configured (no checkpoint, no
            log); ``False`` disables the log explicitly.
        cache: optional directory for the cross-run verdict cache
            (:mod:`repro.harness.verdict_cache`).  ``None`` reads
            ``REPRO_CACHE``.  The parent opens it as the single writer
            and exports ``REPRO_CACHE`` so pool workers read it too:
            forked ones through the entries they inherit, spawned ones
            by reloading it.
    """

    def __init__(
        self,
        workers: int | None = None,
        checkpoint: str | Path | None = None,
        retries: int | None = None,
        retry_backoff: float | None = None,
        soft_timeout: float | None = None,
        runlog: str | Path | None | bool = None,
        cache: str | Path | None = None,
    ):
        if workers is None:
            workers = env_int("REPRO_WORKERS", 1)
        self.workers = max(1, workers)
        if retries is None:
            retries = env_int("REPRO_RETRIES", 0)
        if retry_backoff is None:
            retry_backoff = env_float("REPRO_BACKOFF", 0.05)
        if soft_timeout is None:
            soft_timeout = env_float("REPRO_SOFT_TIMEOUT", None)
        self.policy = JobPolicy(
            retries=retries, backoff=retry_backoff, soft_timeout=soft_timeout
        )
        self.checkpoint = (
            CheckpointStore(checkpoint) if checkpoint is not None else None
        )
        if cache is None:
            from .._env import env_str

            cache = env_str("REPRO_CACHE")
        self._cache_env_set = False
        if cache is not None:
            self.verdict_cache = _verdict_cache.configure(cache, writer=True)
            if os.environ.get("REPRO_CACHE") != str(cache):
                os.environ["REPRO_CACHE"] = str(cache)
                self._cache_env_set = True
        else:
            self.verdict_cache = None
        if runlog is None and checkpoint is not None:
            path = Path(checkpoint)
            runlog = path.with_name(path.stem + ".events.jsonl")
        self.runlog = RunLog(runlog) if runlog else None
        self._jobs_done = 0
        self._last_heartbeat = time.monotonic()
        self._synthesis_cache: dict[tuple, SynthesisResult] = {}
        self._pool = None
        REGISTRY.gauge("pipeline.workers").set(self.workers)
        self.log_event(
            "run.start",
            workers=self.workers,
            retries=self.policy.retries,
            soft_timeout=self.policy.soft_timeout,
            checkpoint=str(checkpoint) if checkpoint is not None else None,
            cache=str(cache) if cache is not None else None,
            profile=PROFILER.enabled,
        )

    def log_event(self, type: str, **fields) -> None:
        """Append one event to the run log (no-op without one)."""
        if self.runlog is not None:
            self.runlog.event(type, **fields)

    def _heartbeat(self, done: int, total: int, started: float) -> None:
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
        if self.checkpoint is not None:
            self.checkpoint.close()
        if self.verdict_cache is not None:
            if _verdict_cache.active() is self.verdict_cache:
                _verdict_cache.deactivate()
            else:
                self.verdict_cache.close()
            self.verdict_cache = None
            if self._cache_env_set:
                os.environ.pop("REPRO_CACHE", None)
                self._cache_env_set = False
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

    def synthesis(
        self,
        arch: str,
        max_events: int,
        time_budget: float | None = None,
    ) -> SynthesisResult:
        """Sharded synthesis for ``arch``, computed once per pipeline.

        Runs through the work-stealing scheduler
        (:func:`repro.harness.scheduler.synthesise_sharded`): the
        enumeration fans out across this pipeline's workers and reuses
        its checkpoint and verdict cache, with results byte-identical
        to the sequential :func:`repro.enumeration.synthesise`.
        """
        key = (arch, max_events, time_budget)
        if key not in self._synthesis_cache:
            from .scheduler import synthesise_sharded

            self._synthesis_cache[key] = synthesise_sharded(
                arch, max_events, time_budget=time_budget, pipeline=self
            )
        return self._synthesis_cache[key]

    # -- batched evaluation ----------------------------------------------

    def map(
        self,
        fn: Callable,
        items: Sequence,
        on_result: Callable[[int, object], None] | None = None,
    ) -> list:
        """Ordered map over independent items, optionally fanned out.

        ``fn`` must be a module-level callable when ``workers > 1``
        (pool workers import it by qualified name).  ``on_result`` fires
        in submission order as each result lands -- the checkpoint hook,
        so completed work survives a crash mid-batch.
        """
        items = list(items)
        with TRACER.span("pipeline.batch"), REGISTRY.timed(
            "pipeline.batch.seconds"
        ):
            busy_before = REGISTRY.timer("pipeline.job.seconds").total
            batch_start = time.monotonic()
            if self.workers <= 1 or len(items) <= 1:
                results = []
                for index, item in enumerate(items):
                    result = _invoke_with_policy(
                        fn, item, time.monotonic(), self.policy
                    )
                    if on_result is not None:
                        on_result(index, result)
                    results.append(result)
                    self._heartbeat(index + 1, len(items), batch_start)
            else:
                results = self._map_pool(fn, items, on_result)
            wall = time.monotonic() - batch_start
            if wall > 0 and items:
                busy = REGISTRY.timer("pipeline.job.seconds").total - busy_before
                REGISTRY.gauge("pipeline.worker_utilization").set(
                    min(1.0, busy / (wall * self.workers))
                )
        self._jobs_done += len(items)
        if items:
            self.log_event(
                "run.batch",
                jobs=len(items),
                seconds=round(wall, 4),
                rate_per_s=round(len(items) / wall, 3) if wall > 0 else None,
            )
        return results

    def map_batched(
        self,
        fn: Callable,
        generate: Callable[[int, int], Sequence],
        total: int,
        batch_size: int,
        on_batch: Callable[[int, Sequence, list], None],
    ) -> int:
        """Feedback loop: generate a batch, map it, fold, repeat.

        For drivers whose inputs depend on earlier outputs (the fuzzer's
        coverage-guided mutation pool): ``generate(start, count)``
        produces the next batch in the parent, the batch fans out
        through :meth:`map`, then ``on_batch(start, items, results)``
        folds the ordered results back before the next batch is
        generated.  ``batch_size`` must not depend on the worker count,
        or the generation sequence (and anything derived from it, like a
        fuzz corpus) stops being reproducible across ``--workers``
        settings.  Returns the number of items processed.
        """
        produced = 0
        started = time.monotonic()
        while produced < total:
            count = min(batch_size, total - produced)
            items = list(generate(produced, count))
            if not items:
                break
            results = self.map(fn, items)
            on_batch(produced, items, results)
            produced += len(items)
            self._heartbeat(produced, total, started)
        return produced

    def _map_pool(
        self,
        fn: Callable,
        items: list,
        on_result: Callable[[int, object], None] | None,
    ) -> list:
        """Fan ``items`` out across the worker pool, in order.

        Uses ``imap`` (not ``map``) so results stream back as they
        complete: each one is checkpointed and its worker's metrics
        delta merged immediately.  A job error is re-raised in the
        parent *after* the merge, with every earlier result recorded.
        """
        self._ensure_pool()
        submitted = time.monotonic()
        task = _PoolTask(fn, self.policy)
        results = []
        for index, (result, delta, error) in enumerate(
            self._pool.imap(task, [(submitted, item) for item in items])
        ):
            _merge_worker_delta(delta, cache=self.verdict_cache)
            if error is not None:
                raise error
            if on_result is not None:
                on_result(index, result)
            results.append(result)
            self._heartbeat(index + 1, len(items), submitted)
        return results

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        import multiprocessing

        # Jobs reference hardware/models by name, so both start
        # methods are safe; prefer fork for lower start-up cost.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        if self.verdict_cache is not None:
            # Forked workers inherit the parsed entries, and the segment
            # handles, never to touch them: nothing of ours may sit in
            # their buffers.
            self.verdict_cache.load()
            self.verdict_cache.flush()
        self._pool = context.Pool(self.workers, initializer=_pool_worker_init)

    def submit(self, fn: Callable, item, callback: Callable) -> None:
        """Asynchronously evaluate one job (the scheduler's dispatch).

        ``callback`` receives the packed ``(result, delta, error)``
        triple -- ``delta`` is ``None`` on the sequential path, a
        worker delta otherwise.  On a pool pipeline the callback fires
        on the pool's result-handler thread, so it must only hand the
        triple off (the scheduler queues it back to its own thread);
        sequential pipelines invoke it inline, before returning.
        Job errors are *delivered*, not raised: the caller decides
        where to re-raise.
        """
        if self.workers <= 1:
            try:
                result = _invoke_with_policy(
                    fn, item, time.monotonic(), self.policy
                )
                callback((result, None, None))
            except Exception as error:
                callback((None, None, error))
            return
        self._ensure_pool()
        task = _PoolTask(fn, self.policy)
        self._pool.apply_async(
            task,
            ((time.monotonic(), item),),
            callback=callback,
            error_callback=lambda error: callback((None, None, error)),
        )

    def map_checkpointed(
        self,
        fn: Callable,
        items: Sequence,
        kind: str = "map",
        encode: Callable = lambda result: result,
        decode: Callable = lambda record: record,
    ) -> list:
        """:meth:`map` with per-item checkpoint records.

        Each item is digested (:func:`~repro.harness.checkpoint.
        job_digest`); items whose digests are already in the store are
        answered from disk (``decode`` of the stored record), the rest
        are evaluated and recorded (``encode`` must make the result
        JSON-serialisable).  Without a checkpoint this is plain
        :meth:`map`.
        """
        items = list(items)
        store = self.checkpoint
        if store is None:
            return self.map(fn, items)
        digests = [job_digest(item) for item in items]
        results: list = [None] * len(items)
        pending: list[int] = []
        for index, digest in enumerate(digests):
            if digest in store:
                results[index] = decode(store.get(digest))
            else:
                pending.append(index)
        hits = len(items) - len(pending)
        REGISTRY.counter("pipeline.checkpoint.lookups").inc(len(items))
        REGISTRY.counter("pipeline.checkpoint.hits").inc(hits)
        REGISTRY.counter("pipeline.checkpoint.misses").inc(len(pending))

        def record(position: int, result) -> None:
            index = pending[position]
            store.record(digests[index], encode(result), kind)
            results[index] = result

        if pending:
            self.map(fn, [items[i] for i in pending], on_result=record)
        return results

    def run_jobs(self, jobs: Iterable[tuple]) -> list:
        """Evaluate job tuples (see :func:`run_job`) in submission order.

        With a checkpoint configured, previously completed jobs are
        answered from the store and only the remainder is evaluated.
        """
        jobs = list(jobs)
        kind = jobs[0][0] if jobs else "job"
        return self.map_checkpointed(run_job, jobs, kind=kind)

    def observable_batch(
        self, arch: str, tests: Sequence[tuple[object, dict | None]]
    ) -> list[bool]:
        """Batch of ``(program, intended_co)`` hardware validations."""
        return self.run_jobs(
            ("observable", arch, program, intended_co)
            for program, intended_co in tests
        )

    def consistency_batch(
        self,
        model_name: str,
        executions: Sequence,
        drop_axioms: tuple[str, ...] = (),
    ) -> list[bool]:
        """Batch of model-consistency checks, models referenced by name."""
        return self.run_jobs(
            ("consistent", model_name, drop_axioms, x) for x in executions
        )

    def violated_axioms_batch(
        self, model_name: str, executions: Sequence
    ) -> list[list[str]]:
        """Batch of violated-axiom queries."""
        return self.run_jobs(
            ("violated", model_name, (), x) for x in executions
        )
