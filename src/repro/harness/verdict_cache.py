"""The one cross-run store: resumes killed runs, replays finished work.

``cache=DIR`` / ``--cache DIR`` opens a directory of JSONL records::

    {"code": ..., "kind": ..., "key": ..., "result": ...}

one per finished job.  This module is the only one that knows keys and
record encodings: callers hand it jobs, and it keys each job's result
on :func:`job_digest`, a stable digest of the job itself.

* ``kind: "synth_chunk"`` / ``"synth_count"`` -- one evaluated
  completion range of a synthesis shard (its counters and surviving
  executions), and one shard's size; both payloads carry their shard's
  ``target``, ``bound`` and ``sig``, and a chunk its ``start`` and
  ``stop`` (see :mod:`repro.harness.scheduler`).  In memory a chunk's
  survivors are :class:`~repro.events.Execution` objects; a record
  holds them as :func:`~repro.fuzz.corpus.execution_to_json` data.
* any other kind -- one :meth:`CheckPipeline.map
  <repro.harness.pipeline.CheckPipeline.map>` job result.

Every record is stamped with the **code digest** (:func:`code_digest`),
a hash of the source of the whole ``repro`` package -- models, relation
rows, code generator, canonical keys -- so nothing stored outlives the
semantics it was computed under.

The records live in *segments*, ``shards-000001.jsonl`` and so on; each
writing process appends to a new one, record by record, flushed
(:mod:`repro._jsonl`), so a killed run loses only the work in flight.
Loading, on the first lookup or record, skips torn, malformed and
other-code records, and a count or chunk record unless its own
coordinates digest to its key, its counters add up and its survivors
decode (each is decoded once, here).  A skipped record costs one
recomputation, which is recorded in its place; never a crash.
:meth:`VerdictCache.compact` merges the segments into one (atomically,
via tmp+fsync+rename), keeping this code's records; closing the store
compacts it once segments pile up.

Only the pipeline **parent** opens the store; pool workers compute
jobs and never record them.

Metrics: every :meth:`VerdictCache.lookup` counts under
``pipeline.checkpoint.lookups/hits/misses``, every record under
``pipeline.checkpoint.records``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
from pathlib import Path

from .._jsonl import JsonlWriter, encode, read_jsonl
from ..events import Execution
from ..obs import REGISTRY
from ..relations import Relation

#: Compact on close once this many segments accumulate.
_COMPACT_SEGMENTS = 8

#: Record kinds the scheduler writes (see the module docstring).
CHUNK = "synth_chunk"
COUNT = "synth_count"

#: The outcome counters of a chunk payload, ``candidates`` first (see
#: :func:`repro.harness.scheduler.run_shard_job`).
CHUNK_COUNTERS = (
    "candidates",
    "pruned_consistent",
    "pruned_baseline",
    "pruned_nonminimal",
)


def source_digest(package: Path) -> str | None:
    """sha256 over the relative path and bytes of every ``.py`` and
    ``.cat`` file under ``package``, in sorted order; ``None`` when one
    cannot be read."""
    digest = hashlib.sha256()
    try:
        files = sorted(
            (path.relative_to(package).as_posix(), path)
            for path in package.rglob("*")
            if path.suffix in (".py", ".cat")
        )
        for relative, path in files:
            data = path.read_bytes()
            digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
    except OSError:
        return None
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str | None:
    """:func:`source_digest` of the imported ``repro`` package, computed
    once per process: work whose code cannot be pinned (``None``) is
    not stored."""
    return source_digest(Path(__file__).resolve().parent.parent)


def _canon(obj) -> object:
    """A deterministic, process-independent encoding of ``obj``.

    The encoding is injective on the value shapes that appear in
    pipeline jobs (tuples of primitives, executions, litmus programs,
    postconditions, intended-co dicts); unknown objects raise so that a
    silently unstable digest can never ship.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Execution):
        return ("execution", _canon(obj.fingerprint()))
    if isinstance(obj, Relation):
        return (
            "relation",
            tuple(sorted(obj.pairs)),
            tuple(sorted(obj.universe)),
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, _canon(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((repr(_canon(item)) for item in obj))))
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(
                sorted(
                    ((repr(_canon(k)), _canon(v)) for k, v in obj.items()),
                    key=lambda kv: kv[0],
                )
            ),
        )
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for a job digest"
    )


def job_digest(job) -> str:
    """A stable hex digest identifying one job across runs: the key the
    store records its result under."""
    return hashlib.sha256(repr(_canon(job)).encode("utf-8")).hexdigest()


def _counts(*numbers) -> bool:
    return all(type(n) is int and n >= 0 for n in numbers)


def _names(kind: str, key: str, payload, *fields: str) -> bool:
    """Whether a count or chunk payload's own coordinates -- its shard
    and, for a chunk, its range -- digest to ``key``."""
    return isinstance(payload, dict) and key == job_digest(
        (kind, *(payload.get(f) for f in ("target", "bound", "sig", *fields)))
    )


def _load_count(key: str, payload) -> dict | None:
    """The count payload, if it names its key's shard and its counts
    are counts."""
    if _names(COUNT, key, payload) and _counts(
        payload.get("skeletons"), payload.get("completions")
    ):
        return payload
    return None


def _load_chunk(key: str, payload) -> dict | None:
    """The chunk payload with its survivors decoded, if it names its
    key's shard and range, its counters and survivors add up to the
    range's judged candidates, and every survivor decodes."""
    if not _names(CHUNK, key, payload, "start", "stop"):
        return None
    start, stop = payload["start"], payload["stop"]
    counters, survivors = payload.get("counters"), payload.get("survivors")
    if not (
        _counts(start, stop)
        and isinstance(counters, dict)
        and isinstance(survivors, list)
    ):
        return None
    numbers = [counters.get(name) for name in CHUNK_COUNTERS]
    if not (
        _counts(*numbers)
        and numbers[0] == stop - start
        and numbers[0] - sum(numbers[1:]) == len(survivors)
    ):
        return None
    # Imported here: importing repro.fuzz imports the pipeline.
    from ..fuzz.corpus import execution_from_json

    try:
        decoded = [execution_from_json(x) for x in survivors]
    except Exception:  # any mangling: the record is skipped, not folded
        return None
    return dict(payload, survivors=decoded)


#: Kind → decoder of a loaded result (``None``: not loaded); other
#: kinds hold any JSON result, served as read.
_LOAD = {
    CHUNK: _load_chunk,
    COUNT: _load_count,
}


def _line(code: str, kind: str, key: str, result) -> dict:
    """One record as written: a chunk's survivors as JSON."""
    if kind == CHUNK:
        from ..fuzz.corpus import execution_to_json

        survivors = [execution_to_json(x) for x in result["survivors"]]
        result = dict(result, survivors=survivors)
    return {"code": code, "kind": kind, "key": key, "result": result}


class VerdictCache:
    """One open store at ``root`` (created on first append); see the
    module docstring for the model."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: kind → key → result of this code, loaded on first use.
        self._results: dict[str, dict[str, object]] | None = None
        self._segment: JsonlWriter | None = None
        self._lookups = REGISTRY.counter("pipeline.checkpoint.lookups")
        self._hits = REGISTRY.counter("pipeline.checkpoint.hits")
        self._misses = REGISTRY.counter("pipeline.checkpoint.misses")
        self._records = REGISTRY.counter("pipeline.checkpoint.records")

    # -- loading ---------------------------------------------------------

    def _segments(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("shards-*.jsonl"))

    def _load(self) -> dict[str, dict[str, object]]:
        if self._results is None:
            self._results = {}
            code = code_digest()
            for segment in self._segments() if code else ():
                for record in read_jsonl(segment):
                    if not isinstance(record, dict) or "result" not in record:
                        continue
                    kind, key = record.get("kind"), record.get("key")
                    if not (
                        record.get("code") == code
                        and isinstance(kind, str)
                        and isinstance(key, str)
                    ):
                        continue
                    result = record["result"]
                    if kind in _LOAD:
                        result = _LOAD[kind](key, result)
                        if result is None:
                            continue
                    self._results.setdefault(kind, {})[key] = result
        return self._results

    def recorded(self, kind: str) -> dict[str, object]:
        """This code's results of one ``kind``, by :func:`job_digest`,
        in the order they were first recorded; uncounted (the pipeline
        and the scheduler read through :meth:`lookup`)."""
        return self._load().get(kind, {})

    # -- lookups and appends ---------------------------------------------

    def lookup(self, kind: str, job, default=None):
        """The result recorded for ``job`` under ``kind``, else
        ``default``; counts one lookup, hit or miss."""
        self._lookups.inc()
        results = self.recorded(kind)
        key = job_digest(job)
        if key in results:
            self._hits.inc()
            return results[key]
        self._misses.inc()
        return default

    def record(self, kind: str, job, result) -> None:
        """Persist ``job``'s result (flushed at once).  A job already
        recorded, or code without a digest, records nothing."""
        code = code_digest()
        results = self._load().setdefault(kind, {})
        key = job_digest(job)
        if code is None or key in results:
            return
        results[key] = result
        if self._segment is None:
            self._segment = JsonlWriter(self._next_segment())
        self._segment.write(_line(code, kind, key, result))
        self._records.inc()

    # -- persistence -----------------------------------------------------

    def _next_segment(self) -> Path:
        existing = self._segments()
        index = int(existing[-1].stem.split("-")[-1]) + 1 if existing else 1
        return self.root / f"shards-{index:06d}.jsonl"

    def _close_segment(self) -> None:
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def compact(self) -> Path | None:
        """Merge every segment into one, atomically, keeping this code's
        records.

        Idempotent: compacting a compacted store rewrites the same
        records.  Returns the surviving segment path (``None`` when
        there were no segments or the code has no digest).
        """
        results = self._load()
        self._close_segment()
        segments = self._segments()
        code = code_digest()
        if not segments or code is None:
            return None
        final = self.root / "shards-000001.jsonl"
        tmp = final.with_name(final.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as out:
            for kind in sorted(results):
                for key, result in sorted(results[kind].items()):
                    out.write(encode(_line(code, kind, key, result)) + "\n")
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, final)
        for segment in segments:
            if segment != final:
                segment.unlink(missing_ok=True)
        return final

    def close(self) -> None:
        """Close this process's segment; compact once the store is
        fragmented."""
        self._close_segment()
        if len(self._segments()) >= _COMPACT_SEGMENTS:
            self.compact()
