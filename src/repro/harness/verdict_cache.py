"""A disk-backed, content-addressed cache of synthesis work, in two layers.

Every synthesis run re-proves what the previous run already settled.
This module persists it across runs, in one directory, at two grains.

**Verdicts.**  One model verdict per execution, keyed by::

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

**Shards.**  One folded synthesis shard -- its counters, skeleton and
completion counts, and surviving executions in start order (see
:mod:`repro.harness.scheduler`) -- keyed by :func:`shard_key`::

    sha256(code digest, target, bound, signature)

The **code digest** (:func:`code_digest`) hashes the source of the
whole ``repro`` package -- including every model, which the sharded
path only ever builds from that source -- so any source edit makes
every shard record unreachable, while the verdict layer, keyed on model
plans alone, keeps serving.  A warm rerun that hits every shard replays
the stored payloads without enumerating, digesting or looking up a
single verdict.

On disk each layer is a set of JSONL *segments*, one record per line:
``segment-000001.jsonl`` for verdicts, ``shards-000001.jsonl`` for
shards.  Appends go to a new segment per writing process;
:meth:`VerdictCache.compact` merges the verdict segments into one
(atomically, via tmp+rename) and leaves the shard segments alone.
Loading tolerates a torn trailing line and skips malformed records --
the same crash posture as
:class:`~repro.harness.checkpoint.CheckpointStore`: a bad line costs
one re-computation, never a crash.  Each layer's segments are parsed on
its first lookup or record, not when the cache is opened, so a run
served entirely from shard records never reads the verdict segments.

Process roles mirror the pipeline's: the **parent** opens the cache as
the single writer, and is the only process that reads or writes shard
records; **pool workers** read verdicts without writing -- a forked
worker keeps the entries the parent loaded before forking, a spawned
one reopens the cache from the ``REPRO_CACHE`` environment variable
(see :func:`worker_init`) -- collect their fresh verdicts in a pending
list, and ship them home in the worker delta
(:class:`~repro.harness.pipeline._PoolTask`), where the parent absorbs
and persists them.

Metrics: ``verdict_cache.lookups/hits/misses/appends`` and
``verdict_cache.shards.lookups/hits/misses/appends`` (both hit rates
surface in ``--stats`` via the standard ``hits/lookups`` convention).
"""

from __future__ import annotations

import functools
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

#: The outcome counters of a shard payload, ``candidates`` first (see
#: :func:`repro.harness.scheduler.run_shard_job`).
SHARD_COUNTERS = (
    "candidates",
    "pruned_consistent",
    "pruned_baseline",
    "pruned_nonminimal",
)


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
    once per process: a shard whose code cannot be pinned (``None``) is
    not cached."""
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
        self._loaded = inherited is not None and inherited._loaded
        self._loaded_count = len(self._entries)
        self._file = None
        self._unflushed = 0
        #: Worker-side records awaiting shipment in the next delta.
        self.pending: list[dict] = []
        self._lookups = REGISTRY.counter("verdict_cache.lookups")
        self._hits = REGISTRY.counter("verdict_cache.hits")
        self._misses = REGISTRY.counter("verdict_cache.misses")
        self._appends = REGISTRY.counter("verdict_cache.appends")
        #: Shard records, parsed on the first shard lookup or record.
        self._shards: dict[str, dict] | None = None
        self._shard_file = None
        self._shard_lookups = REGISTRY.counter("verdict_cache.shards.lookups")
        self._shard_hits = REGISTRY.counter("verdict_cache.shards.hits")
        self._shard_misses = REGISTRY.counter("verdict_cache.shards.misses")
        self._shard_appends = REGISTRY.counter("verdict_cache.shards.appends")

    # -- loading ---------------------------------------------------------

    def _segments(self, prefix: str = "segment") -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"{prefix}-*.jsonl"))

    def _records(self, prefix: str):
        """Every well-formed JSON line of one layer's segments; torn
        tails and hand-mangled lines are skipped (re-computed)."""
        for segment in self._segments(prefix):
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

    def load(self) -> None:
        """Parse the verdict segments, once (the first lookup or record
        does this; the pipeline calls it before forking workers, so they
        inherit the entries)."""
        if self._loaded:
            return
        self._loaded = True
        for record in self._records("segment"):
            try:
                if record["k"] in _VALID_KINDS:
                    key = (record["m"], record["x"], record["k"])
                    self._entries[key] = record["v"]
            except (KeyError, TypeError):
                continue
        self._loaded_count = len(self._entries)

    @property
    def loaded(self) -> int:
        """How many verdicts the segments held when parsed."""
        self.load()
        return self._loaded_count

    # -- lookups and appends ---------------------------------------------

    def __len__(self) -> int:
        self.load()
        return len(self._entries)

    def lookup(self, model_digest: str, exec_digest: str, kind: str):
        """``(hit, verdict)`` for one key; counts the lookup."""
        if not self._loaded:
            self.load()
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
        self.load()
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

    # -- shard records (parent only) -------------------------------------

    def _load_shards(self) -> dict[str, dict]:
        if self._shards is None:
            self._shards = {}
            for record in self._records("shards"):
                if not isinstance(record, dict):
                    continue
                key = record.get("key")
                payload = record.get("payload")
                if isinstance(key, str) and _valid_shard_payload(payload):
                    self._shards[key] = payload
        return self._shards

    def shard_lookup(self, key: str) -> dict | None:
        """The stored payload of one shard (see :func:`shard_key`), or
        ``None``; counts the lookup."""
        self._shard_lookups.inc()
        payload = self._load_shards().get(key)
        if payload is None:
            self._shard_misses.inc()
        else:
            self._shard_hits.inc()
        return payload

    def shard_record(self, key: str, payload: dict) -> None:
        """Persist one shard's folded payload (writers only)."""
        if not self.writer:
            raise RuntimeError("only the writing process records shards")
        shards = self._load_shards()
        if key in shards:
            return
        shards[key] = payload
        if self._shard_file is None:
            self._shard_file = self._open_segment("shards")
        line = json.dumps({"key": key, "payload": payload}, sort_keys=True)
        self._shard_file.write(line + "\n")
        self._shard_appends.inc()

    # -- persistence -----------------------------------------------------

    def _open_segment(self, prefix: str = "segment"):
        self.root.mkdir(parents=True, exist_ok=True)
        existing = self._segments(prefix)
        if existing:
            last = existing[-1].stem.split("-")[-1]
            index = int(last) + 1
        else:
            index = 1
        path = self.root / f"{prefix}-{index:06d}.jsonl"
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
        """Write buffered appends through to this process's segments."""
        if self._file is not None:
            self._file.flush()
            self._unflushed = 0
        if self._shard_file is not None:
            self._shard_file.flush()

    def _close_segment(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None

    def compact(self) -> Path | None:
        """Merge every segment into one, atomically.

        Idempotent: compacting a compacted cache rewrites the same
        entries.  Returns the surviving segment path (``None`` when the
        cache is empty and nothing was ever written).  Shard segments
        are left as they are.
        """
        if not self.writer:
            raise RuntimeError("only the writing process may compact")
        self.load()
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
        if self._shard_file is not None:
            self._shard_file.close()
            self._shard_file = None
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
