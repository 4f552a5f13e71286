"""The one cross-run store: resumes killed runs, replays finished work.

``cache=DIR`` / ``--cache DIR`` opens a directory of JSONL records::

    {"code": ..., "kind": ..., "key": ..., "result": ...}

one per finished job, keyed by the job's
:func:`~repro.harness.checkpoint.job_digest`:

* ``kind: "synth_chunk"`` / ``"synth_count"`` -- one evaluated
  completion range of a synthesis shard (its counters and surviving
  executions), and one shard's size; both payloads carry their shard's
  ``target``, ``bound`` and ``sig`` (see :mod:`repro.harness.scheduler`);
* any other kind -- one :meth:`CheckPipeline.map
  <repro.harness.pipeline.CheckPipeline.map>` job result.

Every record is stamped with the **code digest** (:func:`code_digest`),
a hash of the source of the whole ``repro`` package -- models, relation
rows, code generator, canonical keys -- so nothing stored outlives the
semantics it was computed under.

The records live in *segments*, ``shards-000001.jsonl`` and so on; each
writing process appends to a new one, record by record, flushed
(:mod:`repro._jsonl`), so a killed run loses only the work in flight.
Loading, on the first lookup or record, skips torn, malformed, damaged
and other-code records: a bad line costs one recomputation, never a
crash.  :meth:`VerdictCache.compact` merges the segments into one
(atomically, via tmp+fsync+rename), keeping this code's records; a
writer compacts on close once segments pile up.

Only the pipeline **parent** opens the store, as its single writer;
pool workers never touch it.

Metrics: every :meth:`VerdictCache.lookup` counts under
``pipeline.checkpoint.lookups/hits/misses``, every record under
``pipeline.checkpoint.records``.
"""

from __future__ import annotations

import functools
import hashlib
import os
from pathlib import Path

from .._jsonl import JsonlWriter, encode, read_jsonl
from ..obs import REGISTRY

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


def _decodable(survivor) -> bool:
    """Whether one stored survivor decodes to an execution."""
    from ..fuzz.corpus import execution_from_json

    try:
        execution_from_json(survivor)
    except Exception:  # any mangling: the record is skipped, not folded
        return False
    return True


def _counts(*numbers) -> bool:
    return all(type(n) is int and n >= 0 for n in numbers)


def _has_coordinates(payload) -> bool:
    """Whether a chunk or count payload names its shard."""
    if not isinstance(payload, dict):
        return False
    sig = payload.get("sig")
    return (
        isinstance(payload.get("target"), str)
        and _counts(payload.get("bound"))
        and isinstance(sig, list)
        and all(isinstance(event, str) for event in sig)
    )


def _valid_count_payload(payload) -> bool:
    return _has_coordinates(payload) and _counts(
        payload.get("skeletons"), payload.get("completions")
    )


def _valid_chunk_payload(payload) -> bool:
    """Whether a chunk payload names its shard and range, and its
    counters and survivors add up to the range's judged candidates,
    every survivor an execution."""
    if not _has_coordinates(payload):
        return False
    start, stop = payload.get("start"), payload.get("stop")
    counters, survivors = payload.get("counters"), payload.get("survivors")
    if not (
        _counts(start, stop)
        and start <= stop
        and isinstance(counters, dict)
        and isinstance(survivors, list)
    ):
        return False
    numbers = [counters.get(name) for name in CHUNK_COUNTERS]
    return (
        _counts(*numbers)
        and numbers[0] == stop - start
        and numbers[0] - sum(numbers[1:]) == len(survivors)
        and all(_decodable(x) for x in survivors)
    )


#: Kind → payload check; other kinds hold any JSON result.
_VALID = {
    CHUNK: _valid_chunk_payload,
    COUNT: _valid_count_payload,
}


class VerdictCache:
    """One open store (see the module docstring for the model).

    Args:
        root: the store directory (created on first append).
        writer: whether this process may record and compact; the
            pipeline parent opens with ``True``, readers with ``False``.
    """

    def __init__(self, root: str | Path, writer: bool = False):
        self.root = Path(root)
        self.writer = writer
        #: kind → key → result of this code, parsed on first use.
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
                    result = record["result"]
                    if (
                        record.get("code") == code
                        and isinstance(kind, str)
                        and isinstance(key, str)
                        and _VALID.get(kind, lambda result: True)(result)
                    ):
                        self._results.setdefault(kind, {})[key] = result
        return self._results

    def recorded(self, kind: str) -> dict[str, object]:
        """This code's results of one ``kind``, by key, in the order
        they were first recorded; uncounted (the pipeline and the
        scheduler read through :meth:`lookup`)."""
        return self._load().get(kind, {})

    # -- lookups and appends ---------------------------------------------

    def lookup(self, kind: str, key: str, default=None):
        """The result recorded under ``kind`` and ``key``, else
        ``default``; counts one lookup, hit or miss."""
        self._lookups.inc()
        results = self.recorded(kind)
        if key in results:
            self._hits.inc()
            return results[key]
        self._misses.inc()
        return default

    def record(self, kind: str, key: str, result) -> None:
        """Persist one result (writers only; flushed at once).  A key
        already recorded, or code without a digest, records nothing."""
        if not self.writer:
            raise RuntimeError("only the writing process records results")
        code = code_digest()
        results = self._load().setdefault(kind, {})
        if code is None or key in results:
            return
        results[key] = result
        if self._segment is None:
            self._segment = JsonlWriter(self._next_segment())
        self._segment.write(
            {"code": code, "kind": kind, "key": key, "result": result}
        )
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
        if not self.writer:
            raise RuntimeError("only the writing process may compact")
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
                    record = {"code": code, "kind": kind, "key": key}
                    out.write(encode(dict(record, result=result)) + "\n")
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
        if self.writer and len(self._segments()) >= _COMPACT_SEGMENTS:
            self.compact()


def configure(root: str | Path) -> VerdictCache:
    """Open ``root`` as a pipeline's store, with the pipeline parent as
    its single writer."""
    return VerdictCache(root, writer=True)
