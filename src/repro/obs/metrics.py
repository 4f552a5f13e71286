"""Zero-dependency metrics registry: counters, timers, gauges.

The pipeline, the relation engine, the cat evaluator, and the candidate
enumerator all record into one process-global :data:`REGISTRY` (exposed
via :mod:`repro.obs`).  Five metric kinds cover every call site:

* **counters** -- monotone event counts (cache hits/misses, candidates
  examined, failed jobs);
* **timers** -- accumulated durations with call counts and maxima
  (per-job wall time, queue wait, per-bound synthesis time);
* **gauges** -- last-written values (worker count, utilization);
* **histograms** -- log2-bucketed duration distributions with
  p50/p90/p99 (per-job wall time, queue wait, fuzz per-case time);
* **unique-sets** -- distinct-key counts (fuzz coverage).

Concurrency model.  Within a process, every mutation takes the owning
registry's lock, so concurrent threads never corrupt a metric.  Across
processes the registry is **per-process accumulated and merged on
join**: each :mod:`multiprocessing` pool worker records into its own
(freshly reset) registry, ships a :meth:`~MetricsRegistry.flush_delta`
back with each result -- what it recorded since its last flush, after
which its registry starts from zero again -- and the parent
:meth:`~MetricsRegistry.merge`\\ s them in -- no shared memory, no
cross-process locks.

Snapshots are plain dicts of JSON-serialisable scalars, so a merged
snapshot dumps directly to the ``repro-harness ... --stats`` JSON file.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Iterator


class Counter:
    """A monotone event counter.

    ``inc`` is deliberately lock-free: counters sit on hot cache-lookup
    paths (millions of calls per synthesis run) where a lock acquisition
    per increment costs more than the guarded work.  Under the GIL the
    read-add-store can lose an increment only across a thread switch --
    an acceptable error for statistics -- and the cross-*process* story
    is per-process accumulation + merge-on-join, which needs no lock
    here either.  Snapshot/merge/reset take the registry lock.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._value = 0

    def inc(self, n: int = 1) -> None:
        self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A last-value-wins measurement (0.0 until set)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._lock = lock
        #: ``None`` until set since the last reset.
        self._value: float | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return 0.0 if self._value is None else self._value


class Timer:
    """Accumulated durations: total seconds, observation count, maximum."""

    __slots__ = ("name", "_lock", "count", "total", "max")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._lock = lock
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total += seconds
            if seconds > self.max:
                self.max = seconds

    @contextmanager
    def time(self) -> Iterator[None]:
        start = time.monotonic()
        try:
            yield
        finally:
            self.observe(time.monotonic() - start)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


#: Bucket-exponent clamp: 2**-30 s (~1 ns) .. 2**10 s (~17 min) spans
#: every duration the harness measures; out-of-range observations land
#: in the edge buckets.
_BUCKET_MIN = -30
_BUCKET_MAX = 10


def _bucket_of(seconds: float) -> int:
    """``floor(log2(seconds))``, clamped, via exact frexp arithmetic."""
    if seconds <= 0.0:
        return _BUCKET_MIN
    exponent = math.frexp(seconds)[1] - 1  # 2**e <= seconds < 2**(e+1)
    if exponent < _BUCKET_MIN:
        return _BUCKET_MIN
    if exponent > _BUCKET_MAX:
        return _BUCKET_MAX
    return exponent


def _bucket_quantile(buckets: dict[int, int], count: int, q: float) -> float:
    """The upper edge (seconds) of the bucket holding the q-quantile."""
    if count <= 0:
        return 0.0
    rank = max(1, math.ceil(q * count))
    cumulative = 0
    for exponent in sorted(buckets):
        cumulative += buckets[exponent]
        if cumulative >= rank:
            return 2.0 ** (exponent + 1)
    return 2.0 ** (_BUCKET_MAX + 1)  # pragma: no cover - counts disagree


class Histogram:
    """A log2-bucketed duration distribution.

    An observation of ``s`` seconds lands in bucket ``floor(log2(s))``
    (clamped to ``[-30, 10]``).  Bucket counts are monotone counters, so
    the cross-process story is the same per-bucket summation as timers:
    merging a worker's flush deltas reproduces what it observed
    exactly, at any batch boundary.  Percentiles read off the
    holding bucket's upper edge (``2**(i+1)`` seconds) -- within a
    factor of two of the true value, which is the resolution
    tail-latency questions need, at O(1) memory per metric.
    """

    __slots__ = ("name", "_lock", "count", "total", "max", "buckets")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._lock = lock
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.buckets: dict[int, int] = {}

    def observe(self, seconds: float) -> None:
        bucket = _bucket_of(seconds)
        with self._lock:
            self.count += 1
            self.total += seconds
            if seconds > self.max:
                self.max = seconds
            self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @contextmanager
    def time(self) -> Iterator[None]:
        start = time.monotonic()
        try:
            yield
        finally:
            self.observe(time.monotonic() - start)

    def quantile(self, q: float) -> float:
        """The value at or below which a fraction ``q`` of observations
        fall (bucket upper-edge estimate)."""
        with self._lock:
            return _bucket_quantile(self.buckets, self.count, q)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """Snapshot entry: accumulators, buckets (string keys so the
        dict JSON-dumps), and headline percentiles."""
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "buckets": {str(e): n for e, n in sorted(self.buckets.items())},
            "p50": _bucket_quantile(self.buckets, self.count, 0.50),
            "p90": _bucket_quantile(self.buckets, self.count, 0.90),
            "p99": _bucket_quantile(self.buckets, self.count, 0.99),
        }


class UniqueSet:
    """A distinct-key counter: its value is how many different string
    keys have been added.

    The fuzzer's coverage guidance records *distinct* observations
    (constraint-plan verdict patterns, axiom-violation sets) rather than
    event counts, so a plain :class:`Counter` cannot represent it.  Keys
    are strings so snapshots stay JSON-serialisable; pool workers ship
    the keys added since their last flush and the parent unions them in.
    """

    __slots__ = ("name", "_lock", "_keys")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._lock = lock
        self._keys: set[str] = set()

    def add(self, key: str) -> bool:
        """Record one key; returns True when it was not seen before."""
        with self._lock:
            if key in self._keys:
                return False
            self._keys.add(key)
            return True

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    @property
    def value(self) -> int:
        return len(self._keys)


class MetricsRegistry:
    """A named collection of counters, timers, gauges, and unique-sets.

    Metric objects are created on first use and live for the registry's
    lifetime, so hot paths can bind them once (``C = REGISTRY.counter(
    "x")``) and pay only the increment afterwards.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}
        self._uniques: dict[str, UniqueSet] = {}

    # -- metric access ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name, self._lock)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name, self._lock)
            return metric

    def timer(self, name: str) -> Timer:
        with self._lock:
            metric = self._timers.get(name)
            if metric is None:
                metric = self._timers[name] = Timer(name, self._lock)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, self._lock)
            return metric

    def unique(self, name: str) -> UniqueSet:
        with self._lock:
            metric = self._uniques.get(name)
            if metric is None:
                metric = self._uniques[name] = UniqueSet(name, self._lock)
            return metric

    # -- convenience wrappers --------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, seconds: float) -> None:
        self.timer(name).observe(seconds)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        with self.timer(name).time():
            yield

    # -- snapshots, deltas, merging --------------------------------------

    def snapshot(self) -> dict:
        """The registry as a JSON-serialisable dict."""
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in self._counters.items()
                },
                "gauges": {name: g.value for name, g in self._gauges.items()},
                "timers": {
                    name: {"count": t.count, "total": t.total, "max": t.max}
                    for name, t in self._timers.items()
                },
                "histograms": {
                    name: h.to_dict() for name, h in self._histograms.items()
                },
                "uniques": {
                    name: u.value for name, u in self._uniques.items()
                },
            }

    def flush_delta(self) -> dict:
        """Everything recorded since the previous flush, then a
        :meth:`reset`: the metrics that moved, a gauge only if it was
        set, and the keys of each unique-set.

        Pool workers call this after each job so the parent process can
        merge exactly the metrics that job produced, once.
        """
        with self._lock:
            snap = self.snapshot()
            delta = {
                "counters": {n: v for n, v in snap["counters"].items() if v},
                "gauges": {
                    n: g._value
                    for n, g in self._gauges.items()
                    if g._value is not None
                },
                "timers": {
                    n: t for n, t in snap["timers"].items() if t["count"]
                },
                "histograms": {
                    n: h for n, h in snap["histograms"].items() if h["count"]
                },
                "unique_keys": {
                    n: sorted(u._keys)
                    for n, u in self._uniques.items()
                    if u._keys
                },
            }
            self.reset()
            return delta

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot (or delta) into this one.

        Counters and timer count/total accumulate; timer maxima take the
        larger side; gauges take the incoming value (last write wins).
        """
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counter(name).inc(value)
            for name, value in snapshot.get("gauges", {}).items():
                self.gauge(name).set(value)
            for name, stats in snapshot.get("timers", {}).items():
                timer = self.timer(name)
                timer.count += stats.get("count", 0)
                timer.total += stats.get("total", 0.0)
                timer.max = max(timer.max, stats.get("max", 0.0))
            for name, stats in snapshot.get("histograms", {}).items():
                histogram = self.histogram(name)
                histogram.count += stats.get("count", 0)
                histogram.total += stats.get("total", 0.0)
                histogram.max = max(histogram.max, stats.get("max", 0.0))
                for exponent, n in stats.get("buckets", {}).items():
                    exponent = int(exponent)
                    histogram.buckets[exponent] = (
                        histogram.buckets.get(exponent, 0) + n
                    )
            # Unique-sets merge by key (shipped in flush deltas); the
            # "uniques" counts in a plain snapshot carry no keys, so
            # they cannot be merged and are informational only.
            for name, keys in snapshot.get("unique_keys", {}).items():
                metric = self.unique(name)
                for key in keys:
                    metric.add(key)

    def reset(self) -> None:
        """Zero all metrics and unset every gauge (fresh worker state).

        Metric *objects* survive the reset: hot paths bind them once at
        module import (``C = REGISTRY.counter("x")``), so clearing the
        dicts would orphan those references -- their increments would
        keep landing on objects no snapshot ever reads.
        """
        with self._lock:
            for counter in self._counters.values():
                counter._value = 0
            for gauge in self._gauges.values():
                gauge._value = None
            for timer in self._timers.values():
                timer.count = 0
                timer.total = 0.0
                timer.max = 0.0
            for histogram in self._histograms.values():
                histogram.count = 0
                histogram.total = 0.0
                histogram.max = 0.0
                histogram.buckets.clear()
            for unique in self._uniques.values():
                unique._keys = set()

    def hit_rate(self, prefix: str) -> float | None:
        """``hits / lookups`` for a cache instrumented under ``prefix``
        (``{prefix}.hits`` / ``{prefix}.lookups``), or None if unused."""
        with self._lock:
            hits = self._counters.get(f"{prefix}.hits")
            lookups = self._counters.get(f"{prefix}.lookups")
            if lookups is None or lookups.value == 0:
                return None
            return (hits.value if hits else 0) / lookups.value
