"""Observability: the process-global metrics registry and tracer.

Every instrumented layer (relations, cat, enumeration, sim, harness)
records into :data:`REGISTRY` and :data:`TRACER`.  The harness CLI dumps
both with :func:`stats_snapshot` / :func:`write_stats`; tests isolate
themselves with :func:`reset_observability`.  The opt-in per-plan-node
profiler lives at :data:`PROFILER` (:mod:`repro.obs.profile`); span
forests export to Chrome trace JSON via
:func:`~repro.obs.trace_export.write_chrome_trace`; long runs leave a
JSONL event log via :class:`~repro.obs.runlog.RunLog`.

See ``docs/observability.md`` for the metric naming scheme and how to
read a stats dump.
"""

from __future__ import annotations

import json
from pathlib import Path

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    UniqueSet,
)
from .profile import PROFILER, PlanProfiler
from .runlog import RunLog, read_runlog
from .trace_export import chrome_trace_events, write_chrome_trace
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROFILER",
    "PlanProfiler",
    "REGISTRY",
    "RunLog",
    "Span",
    "TRACER",
    "Timer",
    "Tracer",
    "UniqueSet",
    "chrome_trace_events",
    "read_runlog",
    "reset_observability",
    "stats_snapshot",
    "write_chrome_trace",
    "write_stats",
]

#: The process-global registry all instrumented layers record into.
REGISTRY = MetricsRegistry()

#: The process-global tracer (per-thread span stacks).
TRACER = Tracer()


def stats_snapshot() -> dict:
    """Merged metrics + span trees, ready for ``json.dump``."""
    snapshot = REGISTRY.snapshot()
    cache_prefixes = (
        "relations.global_intern",
        "relations.acyclic_cache",
        "relations.closure_cache",
        "cat.compile_cache",
        "pipeline.checkpoint",
        "verdict_cache.shards",
    )
    hit_rates = {}
    for prefix in cache_prefixes:
        rate = REGISTRY.hit_rate(prefix)
        if rate is not None:
            hit_rates[prefix] = rate
    out = {
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "timers": snapshot["timers"],
        "histograms": snapshot["histograms"],
        "uniques": snapshot["uniques"],
        "hit_rates": hit_rates,
        "spans": TRACER.snapshot(),
    }
    profile = PROFILER.snapshot()
    if profile["nodes"] or profile["plans"]:
        out["profile"] = profile
    return out


def write_stats(path: str | Path) -> Path:
    """Write :func:`stats_snapshot` as JSON; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stats_snapshot(), indent=2, sort_keys=True) + "\n")
    return path


def reset_observability() -> None:
    """Drop all recorded metrics, spans and profile samples (test
    isolation)."""
    REGISTRY.reset()
    TRACER.reset()
    PROFILER.reset()
