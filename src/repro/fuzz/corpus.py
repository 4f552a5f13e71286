"""The fuzz corpus: JSONL witness records, replayable by digest.

Every discrepancy the fuzzer finds lands as one JSON line in
``results/fuzz-corpus.jsonl`` (or wherever ``--corpus`` points):

* ``digest`` -- a PYTHONHASHSEED-stable SHA-256 of the (shrunk)
  execution, the replay key;
* ``execution`` -- the shrunk witness, as primitive JSON (events,
  threads, rf/co/deps/rmw pairs, transaction structure), rebuildable
  with :func:`execution_from_json`;
* ``litmus`` -- the rendered litmus-format text of the witness, when a
  program conversion exists (diagnostic convenience; the execution
  field is authoritative);
* provenance: the discrepancy ``kind``, the disagreeing paths/models,
  generation ``arch``/``seed``/``case`` index, and the original
  (pre-shrink) execution's digest.

Records are written through :mod:`repro._jsonl` in case order, with
sorted keys and no timestamps, so the same seed and budget produce a
byte-identical file -- including under ``--workers 2`` (pipeline
results return in submission order).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .._jsonl import encode, read_jsonl
from ..events import Event, Execution


def execution_to_json(execution: Execution) -> dict:
    """A primitive (JSON-serialisable) encoding of an execution."""
    return {
        "events": [
            [e.eid, e.tid, e.kind, e.loc, sorted(e.tags)]
            for e in execution.events
        ],
        "threads": [list(seq) for seq in execution.threads],
        "rf": sorted(list(p) for p in execution.rf.pairs),
        "co": sorted(list(p) for p in execution.co.pairs),
        "addr": sorted(list(p) for p in execution.addr.pairs),
        "ctrl": sorted(list(p) for p in execution.ctrl.pairs),
        "data": sorted(list(p) for p in execution.data.pairs),
        "rmw": sorted(list(p) for p in execution.rmw.pairs),
        "txn_of": sorted([eid, txn] for eid, txn in execution.txn_of.items()),
        "atomic_txns": sorted(execution.atomic_txns),
    }


def execution_from_json(data: dict) -> Execution:
    """Rebuild an execution from :func:`execution_to_json` output."""
    events = [
        Event(eid=eid, tid=tid, kind=kind, loc=loc, tags=frozenset(tags))
        for eid, tid, kind, loc, tags in data["events"]
    ]
    pairs = lambda name: [tuple(p) for p in data.get(name, [])]
    return Execution(
        events,
        [tuple(seq) for seq in data["threads"]],
        rf=pairs("rf"),
        co=pairs("co"),
        addr=pairs("addr"),
        ctrl=pairs("ctrl"),
        data=pairs("data"),
        rmw=pairs("rmw"),
        txn_of=dict(tuple(item) for item in data.get("txn_of", [])),
        atomic_txns=data.get("atomic_txns", []),
    )


def execution_digest(execution: Execution) -> str:
    """A stable hex digest of an execution (the corpus replay key)."""
    encoded = encode(execution_to_json(execution))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def load_corpus(path: str | Path) -> list[dict]:
    """All well-formed records of a corpus file (a torn or malformed
    line costs only itself, as in the cross-run store)."""
    return list(read_jsonl(path))


def find_record(path: str | Path, digest: str) -> dict | None:
    """The corpus record with the given digest (prefix match allowed,
    like git), or None."""
    for record in load_corpus(path):
        if record.get("digest", "").startswith(digest):
            return record
    return None
