"""Crash-tolerant JSONL files, shared by the cross-run store
(:mod:`repro.harness.verdict_cache`), the run log
(:mod:`repro.obs.runlog`) and the fuzz corpus
(:mod:`repro.fuzz.corpus`): one JSON object per line, appended by
processes that may be killed at any instant.

:class:`JsonlWriter` opens lazily, flushes every record, and starts on
a fresh line after a torn one; :func:`read_jsonl` skips blank, torn and
malformed lines -- a bad line costs its record, never the read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator


def encode(record) -> str:
    """One record as its canonical line (without the newline): sorted
    keys, compact separators."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class JsonlWriter:
    """Appends records to one JSONL file, flushing each."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = None

    def write(self, record) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("a", encoding="utf-8")
            # A torn last line must not swallow this record too.
            if self._file.tell() > 0:
                with self.path.open("rb") as tail:
                    tail.seek(-1, 2)
                    if tail.read(1) != b"\n":
                        self._file.write("\n")
        self._file.write(encode(record) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def read_jsonl(path: str | Path) -> Iterator:
    """Every well-formed JSON line of ``path`` (nothing when it cannot
    be read)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            continue
