"""JSONL run-event log: what happened, when, at what rate.

The shard store (:mod:`repro.harness.verdict_cache`) records *results*;
the run log records *progress*: one JSON line per event, wall-clock
timestamped, written as ``events.jsonl`` inside the store directory so
a long campaign leaves a durable operational record -- when the run
started and with what configuration, heartbeats with throughput and
ETA while batches drain, and how it ended.  ``tail -f`` on the log
answers "is it still making progress and when will it finish" without
attaching a debugger to the run.

Event shape::

    {"ts": 1754650000.123, "type": "run.start", "workers": 2, ...}

``type`` namespaces follow the metric naming scheme: ``run.*`` from the
pipeline itself, ``driver.*`` from the experiment drivers, ``fuzz.*``
from the fuzzing engine.  Unknown fields are free-form -- the log is
for operators and scripts, not for resume logic (that is the store's
job, keyed by stable digests; this file is append-only and never read
back by the harness).
"""

from __future__ import annotations

import time
from pathlib import Path

from .._jsonl import JsonlWriter, read_jsonl


class RunLog(JsonlWriter):
    """An append-only JSONL event stream (opened lazily, flushed per
    event, torn-tail tolerant: see :mod:`repro._jsonl`)."""

    def event(self, type: str, **fields) -> None:
        """Append one timestamped event (flushed immediately)."""
        self.write({"ts": time.time(), "type": type, **fields})


def read_runlog(path: str | Path) -> list[dict]:
    """All well-formed events in a run log (torn lines dropped)."""
    return list(read_jsonl(path))
