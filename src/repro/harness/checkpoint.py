"""Stable job digests: what the shard store keys a job's result on.

A multi-hour Table 1/Table 2 campaign that dies at bound 4 should not
restart from scratch, and a rerun of the same code should not redo
finished work.  With a store open (``cache=``), :class:`CheckPipeline`
records one result per completed job in
:mod:`repro.harness.verdict_cache`, keyed by a **stable digest** of the
job itself, and answers every job whose digest is recorded.

Digest stability is the load-bearing requirement: the digest must be
identical across processes and interpreter runs, so it cannot come from
``hash()`` (salted for strings) or ``repr()`` of sets (iteration order
follows the salted hash).  :func:`job_digest` instead canonicalises the
job tuple -- executions via their sorted :meth:`~repro.events.execution.
Execution.fingerprint`, dataclasses field by field, sets sorted -- and
SHA-256 hashes the canonical form.
"""

from __future__ import annotations

import dataclasses
import hashlib

from ..events import Execution
from ..relations import Relation


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
