"""Job digests and the JSONL checkpoint store for resumable runs.

A multi-hour Table 1/Table 2 campaign that dies at bound 4 should not
restart from scratch.  The :class:`CheckPipeline` therefore records one
JSONL line per completed job -- ``{"code": ..., "digest": ...,
"kind": ..., "result": ...}`` -- keyed by a **stable digest** of the job
itself, and on restart skips every job whose digest is already on disk.
Each line is stamped with the
:func:`~repro.harness.verdict_cache.code_digest` it was computed under;
a restart under edited code ignores it, so no result outlives the
semantics it was computed under.

Digest stability is the load-bearing requirement: the digest must be
identical across processes and interpreter runs, so it cannot come from
``hash()`` (salted for strings) or ``repr()`` of sets (iteration order
follows the salted hash).  :func:`job_digest` instead canonicalises the
job tuple -- executions via their sorted :meth:`~repro.events.execution.
Execution.fingerprint`, dataclasses field by field, sets sorted -- and
SHA-256 hashes the canonical form.

Records append with an explicit flush per line, so a crash loses at most
the in-flight job.  A truncated trailing line (killed mid-write) and any
malformed record are tolerated and dropped on reload: the job re-runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from ..events import Execution
from ..obs import REGISTRY
from ..relations import Relation
from . import verdict_cache


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
        return ("relation", tuple(sorted(obj.pairs)), tuple(sorted(obj.universe)))
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
    """A stable hex digest identifying one pipeline job across runs."""
    return hashlib.sha256(repr(_canon(job)).encode("utf-8")).hexdigest()


class CheckpointStore:
    """An append-only JSONL map from job digest to JSON result.

    One store backs one run (or one resumed chain of runs); results must
    be JSON round-trippable -- the pipeline's job verdicts (bools, lists
    of axiom names) and the drivers' encoded rows all are.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._results: dict[str, object] = {}
        self._by_kind: dict[str, list] = {}
        self._file = None
        if self.path.exists():
            self._load()
        self.loaded = len(self._results)

    def _load(self) -> None:
        code = verdict_cache.code_digest()
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A crash mid-append leaves a truncated last line; the
                # job it recorded simply re-runs.
                continue
            if (
                code is None
                or not isinstance(record, dict)
                or record.get("code") != code
                or not isinstance(record.get("digest"), str)
                or "result" not in record
            ):
                continue  # malformed, or computed under other code
            digest = record["digest"]
            if digest not in self._results:
                self._by_kind.setdefault(record.get("kind", "job"), []).append(
                    record["result"]
                )
            self._results[digest] = record["result"]

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, digest: str) -> bool:
        return digest in self._results

    def get(self, digest: str):
        return self._results[digest]

    def by_kind(self, kind: str) -> list:
        """Every recorded result of one ``kind``, in append order.

        This is how self-describing records (the scheduler's completed
        shard ranges, whose chunk boundaries are timing-dependent and
        therefore never re-digest identically) are read back *as data*
        on resume, instead of being matched digest-by-digest.
        """
        return list(self._by_kind.get(kind, ()))

    def record(self, digest: str, result, kind: str = "job") -> None:
        """Append one completed job's result (flushed immediately)."""
        if digest not in self._results:
            self._by_kind.setdefault(kind, []).append(result)
        self._results[digest] = result
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("a", encoding="utf-8")
            # A torn trailing line (crash mid-append) must not swallow
            # the next record too: start appends on a fresh line.
            if self._file.tell() > 0:
                with self.path.open("rb") as tail:
                    tail.seek(-1, 2)
                    if tail.read(1) != b"\n":
                        self._file.write("\n")
        self._file.write(
            json.dumps(
                {
                    "code": verdict_cache.code_digest(),
                    "digest": digest,
                    "kind": kind,
                    "result": result,
                },
                sort_keys=True,
            )
            + "\n"
        )
        self._file.flush()
        REGISTRY.counter("pipeline.checkpoint.records").inc()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
