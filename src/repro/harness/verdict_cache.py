"""A disk-backed, content-addressed store of folded synthesis shards.

Every synthesis run re-proves what the previous run already settled.
This module persists it across runs, one record per synthesis shard:
its counters, skeleton and completion counts, and surviving executions
in start order (see :mod:`repro.harness.scheduler`), keyed by
:func:`shard_key`::

    sha256(code digest, target, bound, signature)

The **code digest** (:func:`code_digest`) hashes the source of the
whole ``repro`` package -- every model, the relation rows, the code
generator, the canonical keys -- so any source edit makes every record
unreachable: nothing stored outlives the semantics it was computed
under.  Model verdicts themselves are never stored; a warm rerun that
hits every shard replays the stored payloads without enumerating a
candidate or judging one.

On disk the store is a set of JSONL *segments*, ``shards-000001.jsonl``
and so on, one record per line, each stamped with the code digest it
was computed under.  Appends go to a new segment per writing process;
:meth:`VerdictCache.compact` merges the segments into one (atomically,
via tmp+fsync+rename) and drops the records of other code.  Loading
tolerates a torn trailing line and skips malformed, damaged or
other-code records -- the same crash posture as
:class:`~repro.harness.checkpoint.CheckpointStore`: a bad line costs
one re-computation, never a crash.  The segments are parsed on the
first lookup or record, not when the store is opened.

Only the pipeline **parent** opens the store, as its single writer;
pool workers compute chunks and never touch it.  The parent flushes
before forking, so no buffered line can be duplicated into a worker.

Metrics: ``verdict_cache.shards.lookups/hits/misses/appends`` (the hit
rate surfaces in ``--stats`` via the standard ``hits/lookups``
convention).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path

from ..obs import REGISTRY

#: Auto-compact on close once this many segments accumulate.
_COMPACT_SEGMENTS = 8

#: The outcome counters of a shard payload, ``candidates`` first (see
#: :func:`repro.harness.scheduler.run_shard_job`).
SHARD_COUNTERS = (
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


def shard_key(
    target: str, bound: int, signature: tuple[str, ...]
) -> str | None:
    """The shard-record key (see the module docstring); ``None`` -- do
    not cache -- when the code has no digest."""
    code = code_digest()
    if code is None:
        return None
    fields = [code, target, bound, list(signature)]
    return hashlib.sha256(json.dumps(fields).encode("utf-8")).hexdigest()


def _decodable(survivor) -> bool:
    """Whether one stored survivor decodes to an execution."""
    from ..fuzz.corpus import execution_from_json

    try:
        execution_from_json(survivor)
    except Exception:  # any mangling: the record is skipped, not folded
        return False
    return True


def _valid_shard_payload(payload) -> bool:
    """Whether a stored shard payload is whole and self-consistent (a
    hand-mangled record is skipped, never folded)."""
    if not isinstance(payload, dict):
        return False
    counters = payload.get("counters")
    survivors = payload.get("survivors")
    numbers = [payload.get("skeletons"), payload.get("completions")]
    if not isinstance(counters, dict) or not isinstance(survivors, list):
        return False
    numbers += [counters.get(name) for name in SHARD_COUNTERS]
    if not all(type(n) is int and n >= 0 for n in numbers):
        return False
    pruned = sum(counters[name] for name in SHARD_COUNTERS[1:])
    return (
        counters["candidates"] == payload["completions"]
        and counters["candidates"] - pruned == len(survivors)
        and all(_decodable(x) for x in survivors)
    )


class VerdictCache:
    """One open shard store (see the module docstring for the model).

    Args:
        root: the store directory (created on first append).
        writer: whether this process may record shards and compact; the
            pipeline parent opens with ``True``, readers with ``False``.
    """

    def __init__(self, root: str | Path, writer: bool = False):
        self.root = Path(root)
        self.writer = writer
        #: This code's shard records, parsed on the first lookup or record.
        self._shards: dict[str, dict] | None = None
        self._file = None
        self._lookups = REGISTRY.counter("verdict_cache.shards.lookups")
        self._hits = REGISTRY.counter("verdict_cache.shards.hits")
        self._misses = REGISTRY.counter("verdict_cache.shards.misses")
        self._appends = REGISTRY.counter("verdict_cache.shards.appends")

    # -- loading ---------------------------------------------------------

    def _segments(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("shards-*.jsonl"))

    def _records(self):
        """Every well-formed JSON line of the segments; torn tails and
        hand-mangled lines are skipped (re-computed)."""
        for segment in self._segments():
            try:
                text = segment.read_text(encoding="utf-8")
            except OSError:
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue

    def _load(self) -> dict[str, dict]:
        if self._shards is None:
            self._shards = {}
            code = code_digest()
            for record in self._records():
                if not isinstance(record, dict) or record.get("code") != code:
                    continue
                key = record.get("key")
                payload = record.get("payload")
                if isinstance(key, str) and _valid_shard_payload(payload):
                    self._shards[key] = payload
        return self._shards

    # -- lookups and appends ---------------------------------------------

    def shard_lookup(self, key: str) -> dict | None:
        """The stored payload of one shard (see :func:`shard_key`), or
        ``None``; counts the lookup."""
        self._lookups.inc()
        payload = self._load().get(key)
        if payload is None:
            self._misses.inc()
        else:
            self._hits.inc()
        return payload

    def shard_record(self, key: str, payload: dict) -> None:
        """Persist one shard's folded payload (writers only; buffered
        until :meth:`flush`)."""
        if not self.writer:
            raise RuntimeError("only the writing process records shards")
        shards = self._load()
        if key in shards:
            return
        shards[key] = payload
        if self._file is None:
            self._file = self._open_segment()
        self._file.write(_line(key, payload) + "\n")
        self._appends.inc()

    # -- persistence -----------------------------------------------------

    def _open_segment(self):
        self.root.mkdir(parents=True, exist_ok=True)
        existing = self._segments()
        index = int(existing[-1].stem.split("-")[-1]) + 1 if existing else 1
        path = self.root / f"shards-{index:06d}.jsonl"
        return path.open("a", encoding="utf-8")

    def flush(self) -> None:
        """Write buffered records through to this process's segment."""
        if self._file is not None:
            self._file.flush()

    def _close_segment(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def compact(self) -> Path | None:
        """Merge every segment into one, atomically, keeping only this
        code's well-formed records.

        Idempotent: compacting a compacted store rewrites the same
        records.  Returns the surviving segment path (``None`` when
        there were no segments).
        """
        if not self.writer:
            raise RuntimeError("only the writing process may compact")
        shards = self._load()
        self._close_segment()
        segments = self._segments()
        if not segments:
            return None
        final = self.root / "shards-000001.jsonl"
        tmp = final.with_name(final.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as out:
            for key in sorted(shards):
                out.write(_line(key, shards[key]) + "\n")
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, final)
        for segment in segments:
            if segment != final:
                segment.unlink(missing_ok=True)
        return final

    def close(self) -> None:
        """Flush buffered records; auto-compact a fragmented store."""
        self._close_segment()
        if self.writer and len(self._segments()) >= _COMPACT_SEGMENTS:
            self.compact()


def _line(key: str, payload: dict) -> str:
    """One shard record, stamped with the code it was computed under."""
    record = {"code": code_digest(), "key": key, "payload": payload}
    return json.dumps(record, sort_keys=True)


def configure(root: str | Path) -> VerdictCache:
    """Open ``root`` as a pipeline's shard store, with the pipeline
    parent as its single writer."""
    return VerdictCache(root, writer=True)
