"""Work-stealing sharded synthesis on top of :class:`CheckPipeline`.

:func:`synthesise_sharded` reproduces
:func:`repro.enumeration.synthesise` exactly -- same Forbid/Allow
suites, same order, same ``enumeration.*`` counters -- but evaluates
the candidate space in parallel work units.  The space is split by
canonical skeleton signature (:mod:`repro.enumeration.sharding`); each
shard's completion range is cut into fixed chunks of :data:`CHUNK`
completions; idle workers steal whole chunks from the shard with the
most left.  Four properties carry the design:

* **Determinism.**  Chunk boundaries are a pure function of a shard's
  completion count: shard ``s`` with ``n`` completions has the jobs
  ``[k*CHUNK, min((k+1)*CHUNK, n))``, at any ``--workers`` count and
  on every resume.  Only *who* runs a chunk depends on timing, and the
  fold sorts payloads by ``(shard index, range start)`` before folding
  -- so the folded result is byte-identical at any ``--workers`` count,
  and identical to the sequential enumerator's output.
* **Self-description.**  A work unit is the tuple ``("synth_chunk",
  target, bound, signature, start, stop)`` and its payload repeats
  those coordinates.  Because the boundaries never move, a resumed run
  finds each recorded chunk by its job (exact lookup); a record whose
  coordinates do not digest to its key is never loaded, so its
  recomputation replaces it.
* **Global filtering stays in the parent.**  Workers apply the
  *per-candidate* filters (model-inconsistent, baseline-consistent,
  minimal) and ship survivors; the order-dependent steps (canonical
  dedup, discovery order, the Allow weakening pass) run in the fold,
  where the global ``seen`` set lives.
* **Resumable and replayable.**  With a store open
  (:mod:`repro.harness.verdict_cache`), every count and chunk evaluated
  is recorded as it lands.  A later run on the same store -- a resume
  after a kill, or a warm rerun -- answers each count job through
  :meth:`CheckPipeline.map <repro.harness.pipeline.CheckPipeline.map>`
  and looks each chunk up by its job
  (:meth:`~repro.harness.verdict_cache.VerdictCache.lookup`) before
  scheduling it, so only the unrecorded chunks run; a warm rerun runs
  none.

Scheduling counters: ``scheduler.chunks`` / ``scheduler.steals``
(steals are zero at ``--workers 1`` by construction: a slot always
prefers its own shard's next chunk), plus per-shard
``synthesis.shard.<target>.b<n>.<label>.{completions,survivors,chunks,
steals}`` counters and a ``.seconds`` timer feeding the ``--stats``
per-shard summary.  A chunk answered from the store adds to
``completions`` and ``survivors`` only: it did not run in this run.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING

from ..enumeration.canonical import canonical_key
from ..enumeration.config import EnumerationConfig, get_config
from ..enumeration.minimality import is_minimal_inconsistent
from ..enumeration.sharding import (
    Signature,
    complete_shard_range,
    cumulative_counts,
    shard_completion_counts,
    shard_signatures,
    shard_skeletons,
    signature_label,
)
from ..enumeration.synthesis import SynthesisResult, add_allowed
from ..models import get_model
from ..obs import REGISTRY, TRACER
from . import verdict_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events import Execution
    from .pipeline import CheckPipeline

#: Completions per chunk job.  Smaller chunks pay more per-chunk
#: overhead (dispatch, pickling survivors, merging deltas); larger ones
#: leave the last chunks of a bound running alone.
CHUNK = 4096


# ---------------------------------------------------------------------------
# Worker side: evaluating one shard job (module-level for pickling)
# ---------------------------------------------------------------------------

#: (target, bound, signature) → (skeletons, cumulative completion counts),
#: built once per worker process per shard it touches.
_SPACE_CACHE: dict[tuple, tuple[list, list[int]]] = {}


def _shard_space(target: str, bound: int, signature: Signature):
    key = (target, bound, signature)
    space = _SPACE_CACHE.get(key)
    if space is None:
        skeletons = shard_skeletons(get_config(target), signature)
        cumulative = cumulative_counts(shard_completion_counts(skeletons))
        space = (skeletons, cumulative)
        _SPACE_CACHE[key] = space
    return space


def run_shard_job(job: tuple):
    """Evaluate one shard work unit (runs in pool workers or inline).

    * ``("synth_count", target, bound, sig)`` → skeleton/completion
      counts for one shard;
    * ``("synth_chunk", target, bound, sig, start, stop)`` → the chunk
      payload: per-outcome counters plus the surviving (forbidden-
      candidate) executions.

    Both payloads echo their shard's coordinates, so the parent can
    fold and record them as self-contained data.
    """
    kind = job[0]
    if kind == "synth_count":
        _, target, bound, signature = job
        signature = tuple(signature)
        skeletons, cumulative = _shard_space(target, bound, signature)
        return {
            "target": target,
            "bound": bound,
            "sig": list(signature),
            "skeletons": len(skeletons),
            "completions": cumulative[-1] if cumulative else 0,
        }
    if kind != "synth_chunk":
        raise ValueError(f"unknown shard job kind {kind!r}")
    _, target, bound, signature, start, stop = job
    signature = tuple(signature)
    config = get_config(target)
    model = get_model(config.model_name)
    baseline = model.baseline()
    skeletons, cumulative = _shard_space(target, bound, signature)
    counters = dict.fromkeys(verdict_cache.CHUNK_COUNTERS, 0)
    survivors: list[Execution] = []
    began = time.monotonic()
    label = signature_label(signature)
    with TRACER.span(
        f"shard:{target}:b{bound}:{label}", start=start, stop=stop
    ):
        for x in complete_shard_range(skeletons, cumulative, start, stop):
            counters["candidates"] += 1
            if model.consistent(x):
                counters["pruned_consistent"] += 1
                continue
            if not baseline.consistent(x):
                counters["pruned_baseline"] += 1
                continue  # not a transactional relaxation
            if not is_minimal_inconsistent(
                x, model, config, known_inconsistent=True
            ):
                counters["pruned_nonminimal"] += 1
                continue
            survivors.append(x)
    return {
        "target": target,
        "bound": bound,
        "sig": list(signature),
        "start": start,
        "stop": stop,
        "counters": counters,
        "survivors": survivors,
        "seconds": time.monotonic() - began,
    }


# ---------------------------------------------------------------------------
# Parent side: the work-stealing dispatch loop
# ---------------------------------------------------------------------------


class WorkStealingScheduler:
    """Drains one event bound's chunk jobs through the pipeline.

    ``queues`` maps a shard index to its unrun chunk jobs, in start
    order.  Slot-affinity dispatch: a freed slot runs the next chunk of
    the shard it owns, else claims the first unowned shard, and only
    then *steals* -- the last chunk of the shard with the most left.
    Affinity keeps a worker on the shards whose skeletons it has
    already elaborated; stealing never happens at ``workers=1``, and
    the fold is independent of who evaluated what.
    """

    def __init__(
        self,
        pipeline: "CheckPipeline",
        target: str,
        bound: int,
        queues: dict[int, list[tuple]],
    ):
        self.pipeline = pipeline
        self.target = target
        self.bound = bound
        self.queues = {
            shard: deque(jobs) for shard, jobs in sorted(queues.items())
        }
        #: slot → the shard it last claimed.
        self.owner: dict = {}
        self.payloads: list[dict] = []
        self._chunks = REGISTRY.counter("scheduler.chunks")
        self._steals = REGISTRY.counter("scheduler.steals")

    def _shard_counter(self, job: tuple, field: str):
        label = signature_label(job[3])
        return REGISTRY.counter(
            f"synthesis.shard.{self.target}.b{self.bound}.{label}.{field}"
        )

    def _next_chunk(self, slot) -> tuple | None:
        """Pick the next job for a freed slot (None: nothing left)."""
        queues = self.queues
        if not queues:
            return None
        shard = self.owner.get(slot)
        if shard in queues:
            job = queues[shard].popleft()
        else:
            owned = set(self.owner.values())
            shard = next((s for s in queues if s not in owned), None)
            if shard is not None:
                self.owner[slot] = shard
                job = queues[shard].popleft()
            else:
                shard = max(queues, key=lambda s: len(queues[s]))
                job = queues[shard].pop()
                self._steals.inc()
                self._shard_counter(job, "steals").inc()
        if not queues[shard]:
            del queues[shard]
        self._chunks.inc()
        self._shard_counter(job, "chunks").inc()
        return job

    def _record(self, job: tuple, payload: dict) -> None:
        store = self.pipeline.verdict_cache
        if store is not None:
            store.record(verdict_cache.CHUNK, job, payload)

    def run(self) -> list[dict]:
        """Drain every queue; returns the chunk payloads (unsorted)."""
        workers = self.pipeline.workers
        idle = list(range(workers))
        while True:
            for slot in list(idle):
                job = self._next_chunk(slot)
                if job is None:
                    break
                idle.remove(slot)
                self.pipeline.submit(run_shard_job, job, (slot, job))
            if len(idle) == workers:
                break  # nothing in flight
            (slot, job), payload = self.pipeline.next_result()
            idle.append(slot)
            self._record(job, payload)
            _fold_shard_metrics(self.target, self.bound, payload, timed=True)
            self.payloads.append(payload)
        return self.payloads


def _fold_shard_metrics(
    target: str, bound: int, payload: dict, timed: bool = False
) -> None:
    """Per-shard counters for one chunk payload.  Only a chunk
    evaluated in this run is ``timed`` and feeds the shard's timer: a
    chunk answered from the store still carries the ``seconds`` of the
    run that recorded it."""
    label = signature_label(tuple(payload["sig"]))
    base = f"synthesis.shard.{target}.b{bound}.{label}"
    REGISTRY.counter(f"{base}.completions").inc(
        payload["counters"]["candidates"]
    )
    REGISTRY.counter(f"{base}.survivors").inc(len(payload["survivors"]))
    if timed:
        REGISTRY.timer(f"{base}.seconds").observe(payload["seconds"])


# ---------------------------------------------------------------------------
# The sharded synthesis driver (what CheckPipeline.synthesis calls)
# ---------------------------------------------------------------------------


def synthesise_sharded(
    target: str,
    max_events: int,
    pipeline: "CheckPipeline | None" = None,
) -> SynthesisResult:
    """Sharded, work-stealing :func:`repro.enumeration.synthesise`.

    Byte-identical to the sequential enumerator at any worker count
    (pinned by ``tests/test_sharding.py``); only wall-clock and the
    ``scheduler.*`` counters vary.  It always checks the target's
    registry model; the sequential enumerator stays as the reference
    the tests pin it to.
    """
    if pipeline is None:
        from .pipeline import CheckPipeline

        with CheckPipeline() as own:
            return synthesise_sharded(target, max_events, own)

    config = get_config(target)
    result = SynthesisResult(target=target, max_events=max_events)
    started = time.monotonic()
    seen_forbidden: set[tuple] = set()

    with TRACER.span(f"synthesis:{target}"):
        for bound in range(2, max_events + 1):
            _sharded_bound(
                result, pipeline, target, bound, config, seen_forbidden, started
            )

        add_allowed(result, config, seen_forbidden)

    result.elapsed = time.monotonic() - started
    return result


def _sharded_bound(
    result: SynthesisResult,
    pipeline: "CheckPipeline",
    target: str,
    bound: int,
    config: EnumerationConfig,
    seen_forbidden: set[tuple],
    started: float,
) -> None:
    """One event bound: count every shard, answer its chunks from the
    store or drain them through the scheduler, fold in order."""
    prefix = f"enumeration.{target}.bound{bound}"
    signatures = list(shard_signatures(config, bound))
    index_of = {sig: i for i, sig in enumerate(signatures)}
    cache = pipeline.verdict_cache
    with TRACER.span(f"synthesis:{target}:bound{bound}"), REGISTRY.timed(
        f"{prefix}.seconds"
    ):
        counts = pipeline.map(
            run_shard_job,
            [("synth_count", target, bound, sig) for sig in signatures],
        )
        REGISTRY.counter(f"{prefix}.skeletons").inc(
            sum(count["skeletons"] for count in counts)
        )
        chunks: list[list[dict]] = [[] for _ in signatures]
        queues: dict[int, list[tuple]] = {}
        for shard, (sig, count) in enumerate(zip(signatures, counts)):
            total = count["completions"]
            for start in range(0, total, CHUNK):
                stop = min(start + CHUNK, total)
                job = ("synth_chunk", target, bound, sig, start, stop)
                payload = (
                    cache.lookup(verdict_cache.CHUNK, job) if cache else None
                )
                if payload is not None:
                    _fold_shard_metrics(target, bound, payload)
                    chunks[shard].append(payload)
                else:
                    queues.setdefault(shard, []).append(job)
        scheduler = WorkStealingScheduler(pipeline, target, bound, queues)
        for payload in scheduler.run():
            chunks[index_of[tuple(payload["sig"])]].append(payload)
        for shard_chunks in chunks:
            shard_chunks.sort(key=lambda p: p["start"])

        c_candidates = REGISTRY.counter(f"{prefix}.candidates")
        c_consistent = REGISTRY.counter(f"{prefix}.pruned_consistent")
        c_baseline = REGISTRY.counter(f"{prefix}.pruned_baseline")
        c_nonminimal = REGISTRY.counter(f"{prefix}.pruned_nonminimal")
        c_duplicate = REGISTRY.counter(f"{prefix}.pruned_duplicate")
        c_forbidden = REGISTRY.counter(f"{prefix}.forbidden")
        for payload in (p for shard_chunks in chunks for p in shard_chunks):
            counters = payload["counters"]
            result.candidates_examined += counters["candidates"]
            c_candidates.inc(counters["candidates"])
            c_consistent.inc(counters["pruned_consistent"])
            c_baseline.inc(counters["pruned_baseline"])
            c_nonminimal.inc(counters["pruned_nonminimal"])
            for x in payload["survivors"]:
                key = canonical_key(x)
                if key in seen_forbidden:
                    c_duplicate.inc()
                    continue
                seen_forbidden.add(key)
                c_forbidden.inc()
                result.forbidden.append(x)
                result.discovery_times.append(time.monotonic() - started)
