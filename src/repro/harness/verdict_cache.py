"""A disk-backed, content-addressed cache of model verdicts.

Every synthesis run re-proves verdicts the IR executor already settled
in the previous run: the same canonical execution, judged by the same
model, is consistent (or not) forever.  This module persists those
verdicts across runs, keyed by::

    (model digest, canonical execution digest, check kind)

* The **model digest** comes from :func:`repro.ir.model_digest` -- a
  structural hash of the model's compiled constraint plan, so editing a
  model's axioms silently invalidates its old entries (the key changes;
  stale verdicts are unreachable, not wrong).
* The **execution digest** hashes
  :func:`repro.enumeration.canonical.canonical_key`, so isomorphic
  executions (thread/location renamings) share one entry -- sound
  because every model judges structure only.
* ``kind`` is ``"consistent"`` (bool) or ``"violated"`` (axiom-name
  list), the two verdict shapes the pipeline evaluates.

On disk the cache is a directory of JSONL *segments*
(``segment-000001.jsonl``, one record per line).  Appends go to a new
segment per writing process; :meth:`VerdictCache.compact` merges all
segments into one (atomically, via tmp+rename).  Loading tolerates a
torn trailing line and skips malformed records -- the same crash
posture as :class:`~repro.harness.checkpoint.CheckpointStore`: a bad
line costs one re-computation, never a crash.

Process roles mirror the pipeline's: the **parent** opens the cache as
the single writer; **pool workers** read it without writing -- a forked
worker keeps the entries it inherited from the parent, a spawned one
reopens the cache from the ``REPRO_CACHE`` environment variable (see
:func:`worker_init`) -- collect their fresh verdicts in a pending list,
and ship them home in the worker delta
(:class:`~repro.harness.pipeline._PoolTask`), where the parent absorbs
and persists them.

Metrics: ``verdict_cache.lookups/hits/misses/appends`` (hit rate
surfaces in ``--stats`` via the standard ``hits/lookups`` convention).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from ..enumeration.canonical import canonical_key
from ..events import Execution
from ..obs import REGISTRY

#: Auto-compact on close once this many segments accumulate.
_COMPACT_SEGMENTS = 8

#: Buffered appends are flushed to disk every this many records.
_FLUSH_EVERY = 128

_VALID_KINDS = ("consistent", "violated")


def execution_digest(execution: Execution) -> str:
    """The canonical (isomorphism-invariant) digest of one execution.

    Memoised on the (immutable) execution: a candidate is looked up
    under its TM model and again under the baseline.
    """
    own = execution.__dict__
    digest = own.get("_verdict_digest")
    if digest is None:
        digest = own["_verdict_digest"] = hashlib.sha256(
            repr(canonical_key(execution)).encode("utf-8")
        ).hexdigest()
    return digest


class VerdictCache:
    """One open verdict cache (see the module docstring for the model).

    Args:
        root: the cache directory (created on first append).
        writer: whether this process persists new verdicts.  The
            pipeline parent passes ``True``; pool workers open with
            ``False`` and accumulate new verdicts in :attr:`pending`
            for the parent to :meth:`absorb`.
        inherited: a forked parent's cache over the same ``root``, whose
            loaded entries this one reads instead of re-parsing the
            segments.  It is kept referenced and otherwise untouched:
            collecting it would close -- and so flush -- the parent's
            segment handle, writing the parent's buffer a second time.
    """

    def __init__(
        self,
        root: str | Path,
        writer: bool = False,
        inherited: "VerdictCache | None" = None,
    ):
        self.root = Path(root)
        self.writer = writer
        self._inherited = inherited
        self._entries: dict[tuple[str, str, str], object] = (
            {} if inherited is None else inherited._entries
        )
        self._file = None
        self._unflushed = 0
        #: Worker-side records awaiting shipment in the next delta.
        self.pending: list[dict] = []
        self._lookups = REGISTRY.counter("verdict_cache.lookups")
        self._hits = REGISTRY.counter("verdict_cache.hits")
        self._misses = REGISTRY.counter("verdict_cache.misses")
        self._appends = REGISTRY.counter("verdict_cache.appends")
        if inherited is None:
            self._load()
        self.loaded = len(self._entries)

    # -- loading ---------------------------------------------------------

    def _segments(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("segment-*.jsonl"))

    def _load(self) -> None:
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
                    record = json.loads(line)
                    key = (record["m"], record["x"], record["k"])
                    verdict = record["v"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    # Torn tail or hand-mangled line: skip, re-compute.
                    continue
                if record["k"] not in _VALID_KINDS:
                    continue
                self._entries[key] = verdict

    # -- lookups and appends ---------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, model_digest: str, exec_digest: str, kind: str):
        """``(hit, verdict)`` for one key; counts the lookup."""
        self._lookups.inc()
        key = (model_digest, exec_digest, kind)
        if key in self._entries:
            self._hits.inc()
            return True, self._entries[key]
        self._misses.inc()
        return False, None

    def record(
        self, model_digest: str, exec_digest: str, kind: str, verdict
    ) -> None:
        """Store one freshly computed verdict.

        Writers append to their segment (buffered); non-writers queue
        the record for the next worker delta.
        """
        key = (model_digest, exec_digest, kind)
        if key in self._entries:
            return
        self._entries[key] = verdict
        record = {
            "m": model_digest,
            "x": exec_digest,
            "k": kind,
            "v": verdict,
        }
        if self.writer:
            self._append(record)
        else:
            self.pending.append(record)

    def absorb(self, records: list[dict]) -> None:
        """Fold a worker's pending records in (parent side), persisting
        the ones this process had not seen yet."""
        for record in records:
            try:
                self.record(record["m"], record["x"], record["k"], record["v"])
            except (KeyError, TypeError):
                continue

    def flush_pending(self) -> list[dict]:
        """Drain the worker-side pending list (ships in the delta)."""
        pending, self.pending = self.pending, []
        return pending

    # -- persistence -----------------------------------------------------

    def _open_segment(self):
        self.root.mkdir(parents=True, exist_ok=True)
        existing = self._segments()
        if existing:
            last = existing[-1].stem.split("-")[-1]
            index = int(last) + 1
        else:
            index = 1
        path = self.root / f"segment-{index:06d}.jsonl"
        return path.open("a", encoding="utf-8")

    def _append(self, record: dict) -> None:
        if self._file is None:
            self._file = self._open_segment()
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._appends.inc()
        self._unflushed += 1
        if self._unflushed >= _FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Write buffered appends through to this process's segment."""
        if self._file is not None:
            self._file.flush()
            self._unflushed = 0

    def _close_segment(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None

    def compact(self) -> Path | None:
        """Merge every segment into one, atomically.

        Idempotent: compacting a compacted cache rewrites the same
        entries.  Returns the surviving segment path (``None`` when the
        cache is empty and nothing was ever written).
        """
        if not self.writer:
            raise RuntimeError("only the writing process may compact")
        self._close_segment()
        segments = self._segments()
        if not segments and not self._entries:
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / "segment-000001.jsonl.tmp"
        with tmp.open("w", encoding="utf-8") as out:
            for (m, x, k), v in sorted(
                self._entries.items(), key=lambda item: item[0]
            ):
                out.write(
                    json.dumps(
                        {"m": m, "x": x, "k": k, "v": v}, sort_keys=True
                    )
                    + "\n"
                )
            out.flush()
            os.fsync(out.fileno())
        for segment in segments:
            if segment != tmp.with_suffix(""):
                segment.unlink(missing_ok=True)
        final = self.root / "segment-000001.jsonl"
        os.replace(tmp, final)
        return final

    def close(self) -> None:
        """Flush buffered appends; auto-compact a fragmented cache."""
        self._close_segment()
        if self.writer and len(self._segments()) >= _COMPACT_SEGMENTS:
            self.compact()


# ---------------------------------------------------------------------------
# The process-active cache (parent configures; workers inherit or reopen)
# ---------------------------------------------------------------------------

_ACTIVE: VerdictCache | None = None


def configure(root: str | Path, writer: bool) -> VerdictCache:
    """Open ``root`` as this process's active cache and return it."""
    global _ACTIVE
    _ACTIVE = VerdictCache(root, writer=writer)
    return _ACTIVE


def deactivate() -> None:
    """Close and forget the active cache (pipeline shutdown)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
        _ACTIVE = None


def active() -> VerdictCache | None:
    """The process's active cache, if any."""
    return _ACTIVE


def worker_init() -> None:
    """Open the cache read-only in a fresh pool worker.

    The cache to open is ``REPRO_CACHE`` -- the same environment
    contract ``REPRO_PROFILE`` uses for the profiler.  A forked worker
    inherits the parent's active writer over that directory, with its
    loaded entries and its segment handle.  It keeps the entries and
    never touches the handle (the parent flushes before forking; a
    worker writing, flushing or closing it would tear lines or write
    the parent's buffer twice).  A spawned worker starts with no cache
    and reloads the segments.
    """
    global _ACTIVE
    from .._env import env_str

    inherited, _ACTIVE = _ACTIVE, None
    root = env_str("REPRO_CACHE")
    if not root:
        return
    if inherited is not None and inherited.root == Path(root):
        _ACTIVE = VerdictCache(root, inherited=inherited)
    else:
        configure(root, writer=False)
