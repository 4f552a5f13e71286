"""Work-stealing sharded synthesis on top of :class:`CheckPipeline`.

:func:`synthesise_sharded` reproduces
:func:`repro.enumeration.synthesise` exactly -- same Forbid/Allow
suites, same order, same ``enumeration.*`` counters -- but evaluates
the candidate space in parallel work units.  The space is split by
canonical skeleton signature (:mod:`repro.enumeration.sharding`); each
shard's completion range is dispatched in chunks; idle workers steal
half of the largest remaining range.  Three properties carry the
design:

* **Determinism.**  Chunk *boundaries* are timing-dependent (stealing
  reacts to load), but chunk *contents* are pure index ranges, and the
  fold sorts payloads by ``(shard index, range start)`` before folding
  -- so the folded result is byte-identical at any ``--workers`` count,
  and identical to the sequential enumerator's output.
* **Self-description.**  A work unit is the tuple ``("synth_chunk",
  target, bound, signature, start, stop)`` and its payload repeats
  those coordinates, so the store replays completed ranges as plain
  data on resume (:meth:`VerdictCache.recorded`) even though a resumed
  run's chunk boundaries never re-digest identically.
* **Global filtering stays in the parent.**  Workers apply the
  *per-candidate* filters (model-inconsistent, baseline-consistent,
  minimal) and ship survivors; the order-dependent steps (canonical
  dedup, discovery order, the Allow weakening pass) run in the fold,
  where the global ``seen`` set lives.
* **Resumable, and whole shards are cached.**  With a store open
  (:mod:`repro.harness.verdict_cache`), the parent looks each shard up
  (:meth:`VerdictCache.shard_lookup`) before counting or scheduling it;
  a hit's stored payload -- counters, skeleton and completion counts,
  survivors in start order -- joins the fold as one range
  ``[0, completions)``, and no count job or chunk runs for it.  Every
  count and chunk evaluated is recorded as it lands, so a killed run
  resumes with only the gaps between its recorded ranges left to run.
  After a bound that did not time out, every shard whose chunks --
  resumed or fresh -- tile its whole range is recorded as a shard.

Scheduling counters: ``scheduler.chunks`` / ``scheduler.steals``
(steals are zero at ``--workers 1`` by construction: a slot always
prefers its own shard's remainder), plus per-shard
``synthesis.shard.<target>.b<n>.<label>.{completions,survivors,chunks,
steals}`` counters and a ``.seconds`` timer feeding the ``--stats``
per-shard summary.  A shard replayed from the cache, and a chunk
resumed from a killed run's records, add to ``completions`` and
``survivors`` only: neither ran in this run.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..enumeration.canonical import canonical_key
from ..enumeration.config import EnumerationConfig, get_config
from ..enumeration.minimality import is_minimal_inconsistent, weakenings
from ..enumeration.sharding import (
    Signature,
    complete_shard_range,
    cumulative_counts,
    shard_completion_counts,
    shard_signatures,
    shard_skeletons,
    signature_label,
)
from ..enumeration.synthesis import SynthesisResult
from ..models import get_model
from ..obs import REGISTRY, TRACER
from . import verdict_cache
from .checkpoint import job_digest
from .verdict_cache import CHUNK, VerdictCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import CheckPipeline

#: Smallest range a dispatch or a steal will carve off.  Below this the
#: per-chunk overhead (pickling survivors, merging deltas) outweighs
#: the parallelism; a remainder smaller than ``2 *`` this is not worth
#: splitting.
MIN_CHUNK = 64


# ---------------------------------------------------------------------------
# Worker side: evaluating one shard job (module-level for pickling)
# ---------------------------------------------------------------------------

#: (target, bound, signature) → (skeletons, cumulative completion counts),
#: built once per worker process per shard it touches.
_SPACE_CACHE: dict[tuple, tuple[list, list[int]]] = {}

#: target → (config, model, baseline).
_TARGET_CACHE: dict[str, tuple] = {}


def _target_context(target: str):
    context = _TARGET_CACHE.get(target)
    if context is None:
        config = get_config(target)
        model = get_model(config.model_name)
        context = (config, model, model.baseline())
        _TARGET_CACHE[target] = context
    return context


def _shard_space(target: str, bound: int, signature: Signature):
    key = (target, bound, signature)
    space = _SPACE_CACHE.get(key)
    if space is None:
        config = _target_context(target)[0]
        skeletons = shard_skeletons(config, signature)
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
      candidate) executions as JSON.

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
    config, model, baseline = _target_context(target)
    skeletons, cumulative = _shard_space(target, bound, signature)

    from ..fuzz.corpus import execution_to_json

    counters = dict.fromkeys(verdict_cache.SHARD_COUNTERS, 0)
    survivors: list[dict] = []
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
            survivors.append(execution_to_json(x))
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


class _Interval:
    """One undispatched completion range of one shard, owned by the
    slot currently working that shard (or by nobody)."""

    __slots__ = ("shard", "start", "stop", "owner")

    def __init__(self, shard: int, start: int, stop: int, owner=None):
        self.shard = shard
        self.start = start
        self.stop = stop
        self.owner = owner

    def __len__(self) -> int:
        return max(0, self.stop - self.start)


class WorkStealingScheduler:
    """Drains one event bound's shard ranges through the pipeline.

    Slot-affinity dispatch: a freed slot first continues its own
    interval (front chunk, binary halving down to :data:`MIN_CHUNK`),
    then claims an unowned interval in shard order, and only then
    *steals* -- splitting the largest interval owned by a busy slot and
    taking the back half.  Stealing therefore never happens at
    ``workers=1``, and the per-chunk payload fold is independent of who
    evaluated what.
    """

    def __init__(
        self,
        pipeline: "CheckPipeline",
        target: str,
        bound: int,
        signatures: list[Signature],
        remaining: dict[int, list[tuple[int, int]]],
        deadline: float | None,
    ):
        self.pipeline = pipeline
        self.target = target
        self.bound = bound
        self.signatures = signatures
        self.deadline = deadline
        self.intervals: list[_Interval] = [
            _Interval(shard, start, stop)
            for shard in sorted(remaining)
            for start, stop in remaining[shard]
            if stop > start
        ]
        self.payloads: list[dict] = []
        self.timed_out = False
        self._chunks = REGISTRY.counter("scheduler.chunks")
        self._steals = REGISTRY.counter("scheduler.steals")

    def _shard_counter(self, shard: int, field: str):
        label = signature_label(self.signatures[shard])
        return REGISTRY.counter(
            f"synthesis.shard.{self.target}.b{self.bound}.{label}.{field}"
        )

    def _next_chunk(self, slot) -> tuple | None:
        """Pick the next range for a freed slot (None: nothing left)."""
        interval = self._own_interval(slot) or self._unowned_interval(slot)
        if interval is None:
            interval = self._steal(slot)
        if interval is None:
            return None
        size = max(MIN_CHUNK, len(interval) // 2)
        start = interval.start
        stop = min(interval.stop, start + size)
        interval.start = stop
        if not len(interval):
            self.intervals.remove(interval)
        self._chunks.inc()
        self._shard_counter(interval.shard, "chunks").inc()
        sig = self.signatures[interval.shard]
        return ("synth_chunk", self.target, self.bound, sig, start, stop)

    def _own_interval(self, slot) -> _Interval | None:
        for interval in self.intervals:
            if interval.owner == slot and len(interval):
                return interval
        return None

    def _unowned_interval(self, slot) -> _Interval | None:
        for interval in self.intervals:
            if interval.owner is None and len(interval):
                interval.owner = slot
                return interval
        return None

    def _steal(self, slot) -> _Interval | None:
        victim = max(self.intervals, key=len, default=None)
        if victim is None or len(victim) < 2 * MIN_CHUNK:
            return None
        mid = victim.start + len(victim) // 2
        stolen = _Interval(victim.shard, mid, victim.stop, owner=slot)
        victim.stop = mid
        self.intervals.append(stolen)
        self._steals.inc()
        self._shard_counter(victim.shard, "steals").inc()
        return stolen

    def _record(self, job: tuple, payload: dict) -> None:
        store = self.pipeline.verdict_cache
        if store is not None:
            store.record(CHUNK, job_digest(job), payload)

    def run(self) -> list[dict]:
        """Drain every interval; returns the chunk payloads (unsorted)."""
        workers = self.pipeline.workers
        idle = list(range(workers))
        while True:
            if self.deadline is not None and time.monotonic() > self.deadline:
                self.timed_out = True
            if not self.timed_out:
                for slot in list(idle):
                    job = self._next_chunk(slot)
                    if job is None:
                        # This slot found nothing to run *or steal*, but a
                        # later idle slot may still own an unfinished
                        # interval too small to steal -- keep trying them.
                        continue
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
    """Per-shard counters for one chunk or shard payload.  Only a chunk
    evaluated in this run is ``timed`` and feeds the shard's timer: a
    resumed chunk still carries the ``seconds`` of the run that
    recorded it, and a replayed shard carries none."""
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


def _resumed_chunks(
    cache: VerdictCache | None,
    target: str,
    bound: int,
    index_of: dict[Signature, int],
    counts: dict[int, dict],
) -> dict[int, list[dict]]:
    """The recorded chunk payloads of this bound's counted shards, per
    shard index, in start order.  A chunk that overlaps one already
    taken, or runs past its shard's completions, is left out: its range
    is evaluated again instead of being folded twice."""
    chunks: dict[int, list[dict]] = {}
    if cache is None:
        return chunks
    recorded = sorted(cache.recorded(CHUNK).values(), key=lambda p: p["start"])
    for payload in recorded:
        if payload["target"] != target or payload["bound"] != bound:
            continue
        shard = index_of.get(tuple(payload["sig"]))
        if shard not in counts:
            continue  # replayed whole from its shard record
        taken = chunks.setdefault(shard, [])
        if payload["stop"] > counts[shard]["completions"] or (
            taken and payload["start"] < taken[-1]["stop"]
        ):
            continue
        taken.append(payload)
    return chunks


def _gaps(
    total: int, covered: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The sub-ranges of ``[0, total)`` not covered by ``covered``."""
    out: list[tuple[int, int]] = []
    position = 0
    for start, stop in sorted(covered):
        if start > position:
            out.append((position, min(start, total)))
        position = max(position, stop)
    if position < total:
        out.append((position, total))
    return out


def synthesise_sharded(
    target: str,
    max_events: int,
    time_budget: float | None = None,
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
            return synthesise_sharded(target, max_events, time_budget, own)

    config = get_config(target)
    result = SynthesisResult(target=target, max_events=max_events)
    started = time.monotonic()
    deadline = None if time_budget is None else started + time_budget
    seen_forbidden: set[tuple] = set()

    with TRACER.span(f"synthesis:{target}"):
        for bound in range(2, max_events + 1):
            if deadline is not None and time.monotonic() > deadline:
                result.complete = False
                break
            _sharded_bound(
                result,
                pipeline,
                target,
                bound,
                config,
                seen_forbidden,
                started,
                deadline,
            )
            if not result.complete:
                break

        # Allow = one-step weakenings of the Forbid tests, deduplicated
        # (identical to the sequential enumerator's pass).
        with TRACER.span(f"synthesis:{target}:weakenings"):
            seen_allowed: set[tuple] = set()
            for x in result.forbidden:
                for child in weakenings(x, config):
                    if len(child) == 0:
                        continue
                    key = canonical_key(child)
                    if key in seen_allowed or key in seen_forbidden:
                        continue
                    seen_allowed.add(key)
                    result.allowed.append(child)

    result.elapsed = time.monotonic() - started
    return result


def _shard_keys(
    pipeline: "CheckPipeline",
    target: str,
    bound: int,
    signatures: list[Signature],
) -> list[str | None]:
    """Each shard's record key; all ``None`` without a shard store."""
    if pipeline.verdict_cache is None:
        return [None] * len(signatures)
    return [
        verdict_cache.shard_key(target, bound, sig) for sig in signatures
    ]


def _record_shards(
    cache: VerdictCache,
    keys: list[str | None],
    counts: dict[int, dict],
    chunks: dict[int, list[dict]],
) -> None:
    """Record every counted shard whose chunk payloads -- resumed or
    fresh -- tile ``[0, completions)`` exactly, empty shards included."""
    for shard, count in counts.items():
        key = keys[shard]
        if key is None:
            continue
        ordered = sorted(chunks.get(shard, []), key=lambda p: p["start"])
        position = 0
        for payload in ordered:
            if payload["start"] != position:
                break
            position = payload["stop"]
        if position != count["completions"]:
            continue
        counters = {
            name: sum(p["counters"][name] for p in ordered)
            for name in verdict_cache.SHARD_COUNTERS
        }
        cache.shard_record(
            key,
            {
                "skeletons": count["skeletons"],
                "completions": count["completions"],
                "counters": counters,
                "survivors": [x for p in ordered for x in p["survivors"]],
            },
        )


def _sharded_bound(
    result: SynthesisResult,
    pipeline: "CheckPipeline",
    target: str,
    bound: int,
    config: EnumerationConfig,
    seen_forbidden: set[tuple],
    started: float,
    deadline: float | None,
) -> None:
    """One event bound: look shards up, count and drain the rest, fold
    in order, record what was computed."""
    from ..fuzz.corpus import execution_from_json

    prefix = f"enumeration.{target}.bound{bound}"
    signatures = list(shard_signatures(config, bound))
    index_of = {sig: i for i, sig in enumerate(signatures)}
    cache = pipeline.verdict_cache
    with TRACER.span(f"synthesis:{target}:bound{bound}"), REGISTRY.timed(
        f"{prefix}.seconds"
    ):
        keys = _shard_keys(pipeline, target, bound, signatures)
        stored: dict[int, dict] = {}
        for shard, key in enumerate(keys):
            payload = None if key is None else cache.shard_lookup(key)
            if payload is not None:
                stored[shard] = payload
        missed = [s for s in range(len(signatures)) if s not in stored]
        count_jobs = [
            ("synth_count", target, bound, signatures[s]) for s in missed
        ]
        counts = dict(zip(missed, pipeline.map(run_shard_job, count_jobs)))
        REGISTRY.counter(f"{prefix}.skeletons").inc(
            sum(count["skeletons"] for count in counts.values())
            + sum(payload["skeletons"] for payload in stored.values())
        )
        chunks = _resumed_chunks(cache, target, bound, index_of, counts)
        for shard_chunks in chunks.values():
            for payload in shard_chunks:
                _fold_shard_metrics(target, bound, payload)
        remaining = {
            shard: _gaps(
                count["completions"],
                [(p["start"], p["stop"]) for p in chunks.get(shard, [])],
            )
            for shard, count in counts.items()
        }
        scheduler = WorkStealingScheduler(
            pipeline, target, bound, signatures, remaining, deadline
        )
        for payload in scheduler.run():
            shard = index_of[tuple(payload["sig"])]
            chunks.setdefault(shard, []).append(payload)
        if scheduler.timed_out:
            result.complete = False
        elif cache is not None:
            _record_shards(cache, keys, counts, chunks)

        replayed = [
            dict(
                payload,
                sig=list(signatures[shard]),
                start=0,
                stop=payload["completions"],
            )
            for shard, payload in stored.items()
        ]
        for payload in replayed:
            _fold_shard_metrics(target, bound, payload)
        ordered = sorted(
            [p for shard_chunks in chunks.values() for p in shard_chunks]
            + replayed,
            key=lambda p: (index_of[tuple(p["sig"])], p["start"]),
        )
        c_candidates = REGISTRY.counter(f"{prefix}.candidates")
        c_consistent = REGISTRY.counter(f"{prefix}.pruned_consistent")
        c_baseline = REGISTRY.counter(f"{prefix}.pruned_baseline")
        c_nonminimal = REGISTRY.counter(f"{prefix}.pruned_nonminimal")
        c_duplicate = REGISTRY.counter(f"{prefix}.pruned_duplicate")
        c_forbidden = REGISTRY.counter(f"{prefix}.forbidden")
        for payload in ordered:
            counters = payload["counters"]
            result.candidates_examined += counters["candidates"]
            c_candidates.inc(counters["candidates"])
            c_consistent.inc(counters["pruned_consistent"])
            c_baseline.inc(counters["pruned_baseline"])
            c_nonminimal.inc(counters["pruned_nonminimal"])
            for encoded in payload["survivors"]:
                x = execution_from_json(encoded)
                key = canonical_key(x)
                if key in seen_forbidden:
                    c_duplicate.inc()
                    continue
                seen_forbidden.add(key)
                c_forbidden.inc()
                result.forbidden.append(x)
                result.discovery_times.append(time.monotonic() - started)
