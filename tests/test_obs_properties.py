"""Property tests for the observability layer.

Two families of invariants:

* **accounting** -- every instrumented cache satisfies
  ``hits + misses == lookups`` on every path (including uncached
  fallbacks), and the flush-delta/merge algebra loses nothing: merging a
  run's deltas reproduces its snapshot.
* **structure** -- span trees nest exactly as the call tree does, and
  survive exceptions and resets.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cat import CatModel, bundled_model
from repro.enumeration import enumerate_executions, get_config
from repro.harness import CheckPipeline
from repro.harness.table1 import run_table1
from repro.models import get_model
from repro.obs import REGISTRY, TRACER, reset_observability, stats_snapshot
from repro.obs.metrics import (
    _BUCKET_MAX,
    _BUCKET_MIN,
    MetricsRegistry,
    _bucket_of,
)
from repro.obs.tracing import Tracer

CACHE_PREFIXES = (
    "relations.global_intern",
    "relations.acyclic_cache",
    "relations.closure_cache",
    "cat.compile_cache",
    "pipeline.checkpoint",
)


def _cache_counts(prefix: str) -> tuple[int, int, int]:
    counters = REGISTRY.snapshot()["counters"]
    return (
        counters.get(f"{prefix}.lookups", 0),
        counters.get(f"{prefix}.hits", 0),
        counters.get(f"{prefix}.misses", 0),
    )


@pytest.fixture(scope="module")
def x86_executions():
    return list(enumerate_executions(get_config("x86"), 3))


def test_cache_accounting_balances_after_real_workload(
    tmp_path, x86_executions
):
    """hits + misses == lookups for every instrumented cache, measured
    as deltas across a workload that exercises them all: model checks
    (relation caches, compile cache) plus a checkpointed batch."""
    model = get_model("x86tm")
    before = {p: _cache_counts(p) for p in CACHE_PREFIXES}
    for x in x86_executions[:200]:
        model.consistent(x)
    # x86 plans close no relation (completions carry co already
    # closed); Power's hb* is a closure, so it exercises that cache.
    power = get_model("power")
    for x in x86_executions[:200]:
        power.consistent(x)
    CatModel(bundled_model("x86tm"))
    with CheckPipeline(checkpoint=tmp_path / "acct.jsonl") as pipe:
        pipe.consistency_batch("x86tm", x86_executions[:20])
        pipe.consistency_batch("x86tm", x86_executions[:20])  # replay
    exercised = 0
    for prefix in CACHE_PREFIXES:
        lookups, hits, misses = (
            after - base
            for after, base in zip(_cache_counts(prefix), before[prefix])
        )
        assert hits + misses == lookups, (prefix, lookups, hits, misses)
        assert hits >= 0 and misses >= 0
        if lookups:
            exercised += 1
    assert exercised == len(CACHE_PREFIXES)


def test_hit_rate_matches_counters(x86_executions):
    model = get_model("x86tm")
    for x in x86_executions[:50]:
        model.consistent(x)
    lookups, hits, _ = _cache_counts("relations.acyclic_cache")
    assert lookups > 0
    assert REGISTRY.hit_rate("relations.acyclic_cache") == pytest.approx(
        hits / lookups
    )
    assert REGISTRY.hit_rate("no.such.cache") is None


# ---------------------------------------------------------------------------
# Flush-delta / merge algebra
# ---------------------------------------------------------------------------

_events = st.lists(
    st.one_of(
        st.tuples(
            st.just("inc"),
            st.sampled_from(("a", "b", "c")),
            st.integers(min_value=1, max_value=10),
        ),
        st.tuples(
            st.just("observe"),
            st.sampled_from(("t1", "t2")),
            st.floats(min_value=0.0, max_value=5.0),
        ),
    ),
    max_size=30,
)


@settings(max_examples=50, deadline=None)
@given(runs=st.lists(_events, min_size=1, max_size=4))
def test_merging_flush_deltas_reproduces_snapshot(runs):
    """A worker that flushes a delta after every batch reports, in
    total, exactly its final snapshot: merge(deltas) == snapshot."""
    worker = MetricsRegistry()
    parent = MetricsRegistry()
    for events in runs:
        for kind, name, value in events:
            if kind == "inc":
                worker.inc(name, value)
            else:
                worker.observe(name, value)
        parent.merge(worker.flush_delta())
    merged, direct = parent.snapshot(), worker.snapshot()
    assert merged["counters"] == direct["counters"]
    for name, stats in direct["timers"].items():
        got = merged["timers"][name]
        assert got["count"] == stats["count"]
        assert got["total"] == pytest.approx(stats["total"])
        assert got["max"] == pytest.approx(stats["max"])


def test_flush_delta_is_empty_when_nothing_happened():
    registry = MetricsRegistry()
    registry.inc("x", 3)
    registry.flush_delta()
    delta = registry.flush_delta()
    assert delta["counters"] == {} and delta["timers"] == {}


def test_unique_set_counts_distinct_keys():
    registry = MetricsRegistry()
    metric = registry.unique("patterns")
    assert metric.add("a") is True
    assert metric.add("a") is False
    assert metric.add("b") is True
    assert metric.value == 2
    assert registry.snapshot()["uniques"] == {"patterns": 2}


@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), max_size=6), max_size=6
    )
)
@settings(max_examples=40, deadline=None)
def test_unique_set_merge_reproduces_direct_counts(batches):
    """Per-batch flush_delta → merge must reproduce the worker's own
    distinct-key counts: the union over shipped key deltas equals the
    worker's key set."""
    worker = MetricsRegistry()
    parent = MetricsRegistry()
    for batch in batches:
        for key in batch:
            worker.unique("k").add(key)
        parent.merge(worker.flush_delta())
    assert (
        parent.snapshot()["uniques"].get("k", 0)
        == worker.snapshot()["uniques"].get("k", 0)
    )


def test_unique_set_flush_ships_only_new_keys():
    registry = MetricsRegistry()
    registry.unique("k").add("a")
    first = registry.flush_delta()
    assert first["unique_keys"] == {"k": ["a"]}
    registry.unique("k").add("a")
    registry.unique("k").add("b")
    second = registry.flush_delta()
    assert second["unique_keys"] == {"k": ["b"]}


def test_unique_set_reset_clears_keys():
    registry = MetricsRegistry()
    metric = registry.unique("k")
    metric.add("a")
    registry.reset()
    assert metric.value == 0
    assert metric.add("a") is True


def test_reset_preserves_bound_metric_objects():
    """Hot paths bind metric objects once at import; reset must zero
    them in place, not orphan them (a cleared dict would silently drop
    every later increment from snapshots)."""
    registry = MetricsRegistry()
    counter = registry.counter("bound.counter")
    timer = registry.timer("bound.timer")
    counter.inc(7)
    timer.observe(1.0)
    registry.reset()
    assert registry.snapshot()["counters"]["bound.counter"] == 0
    counter.inc(2)
    timer.observe(0.5)
    snap = registry.snapshot()
    assert snap["counters"]["bound.counter"] == 2
    assert snap["timers"]["bound.timer"]["count"] == 1
    assert registry.counter("bound.counter") is counter


# ---------------------------------------------------------------------------
# Histogram bucket/merge algebra
# ---------------------------------------------------------------------------

_durations = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    max_size=40,
)


def _hist_registry(observations) -> MetricsRegistry:
    registry = MetricsRegistry()
    for seconds in observations:
        registry.histogram("h").observe(seconds)
    return registry


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-12, max_value=1e8, allow_nan=False))
def test_bucket_brackets_its_value(seconds):
    """Within the clamp range, bucket ``e`` holds exactly the values in
    ``[2**e, 2**(e+1))``; outside it, observations land on the edges."""
    bucket = _bucket_of(seconds)
    assert _BUCKET_MIN <= bucket <= _BUCKET_MAX
    if _BUCKET_MIN < bucket < _BUCKET_MAX:
        assert 2.0**bucket <= seconds < 2.0 ** (bucket + 1)
    elif bucket == _BUCKET_MIN:
        assert seconds < 2.0 ** (_BUCKET_MIN + 1)
    else:
        assert seconds >= 2.0**_BUCKET_MAX


@settings(max_examples=40, deadline=None)
@given(a=_durations, b=_durations, c=_durations)
def test_histogram_merge_is_associative(a, b, c):
    """merge(merge(A, B), C) == merge(A, merge(B, C)): workers can join
    in any grouping without changing the merged distribution."""
    left = _hist_registry(a)
    left.merge(_hist_registry(b).snapshot())
    left.merge(_hist_registry(c).snapshot())
    bc = _hist_registry(b)
    bc.merge(_hist_registry(c).snapshot())
    right = _hist_registry(a)
    right.merge(bc.snapshot())
    got, want = (
        r.snapshot()["histograms"].get("h") for r in (left, right)
    )
    if got is None or want is None:
        assert got == want
        return
    assert got["count"] == want["count"]
    assert got["total"] == pytest.approx(want["total"])
    assert got["max"] == pytest.approx(want["max"])
    assert got["buckets"] == want["buckets"]


@settings(max_examples=40, deadline=None)
@given(runs=st.lists(_durations, min_size=1, max_size=4))
def test_histogram_flush_deltas_round_trip(runs):
    """Merging a worker's per-batch flush deltas reproduces its own
    snapshot exactly (same algebra as counters/timers)."""
    worker = MetricsRegistry()
    parent = MetricsRegistry()
    for batch in runs:
        for seconds in batch:
            worker.histogram("h").observe(seconds)
        parent.merge(worker.flush_delta())
    direct = worker.snapshot()["histograms"].get("h")
    merged = parent.snapshot()["histograms"].get("h")
    if direct is None or direct["count"] == 0:
        assert merged is None or merged["count"] == 0
        return
    assert merged["count"] == direct["count"]
    assert merged["total"] == pytest.approx(direct["total"])
    assert merged["buckets"] == direct["buckets"]
    assert merged["p50"] == direct["p50"]
    assert merged["p99"] == direct["p99"]


@settings(max_examples=60, deadline=None)
@given(
    observations=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    q1=st.floats(min_value=0.01, max_value=1.0),
    q2=st.floats(min_value=0.01, max_value=1.0),
)
def test_histogram_percentiles_are_monotone(observations, q1, q2):
    """q1 <= q2 implies quantile(q1) <= quantile(q2); the headline
    snapshot percentiles are ordered and bound the observed extremes."""
    registry = _hist_registry(observations)
    h = registry.histogram("h")
    low, high = sorted((q1, q2))
    assert h.quantile(low) <= h.quantile(high)
    stats = h.to_dict()
    assert stats["p50"] <= stats["p90"] <= stats["p99"]
    # The percentile estimate is a bucket upper edge: never below the
    # true value for that rank, so p99 bounds max from above (within
    # the clamp range).
    if 0.0 < stats["max"] < 2.0**_BUCKET_MAX:
        assert stats["p99"] >= stats["max"] or stats["count"] > 1


def test_histogram_reset_zeroes_in_place():
    registry = MetricsRegistry()
    h = registry.histogram("h")
    h.observe(0.25)
    registry.reset()
    assert h.count == 0 and h.buckets == {}
    h.observe(0.5)
    assert registry.snapshot()["histograms"]["h"]["count"] == 1


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------


def _span_names(spans):
    return {s["name"] for s in spans}


def _find(spans, name):
    for span in spans:
        if span["name"] == name:
            return span
    raise AssertionError(f"no span named {name!r} in {_span_names(spans)}")


def test_span_tree_nests_under_nested_pipeline_calls(x86_executions):
    """A driver run produces one root span whose children mirror the
    call tree: table1 -> synthesis -> per-bound spans, plus the
    pipeline batches."""
    reset_observability()
    run_table1("x86", 3)
    roots = TRACER.snapshot()
    table1 = _find(roots, "table1:x86")
    synthesis = _find(table1["children"], "synthesis:x86")
    assert "synthesis:x86:bound3" in _span_names(synthesis["children"])
    batches = [
        c for c in table1["children"] if c["name"] == "pipeline.batch"
    ]
    assert batches, "pipeline batches must nest under the driver span"
    for span in batches:
        assert span["elapsed"] >= 0.0
    # spans also land in the stats dump
    assert "table1:x86" in _span_names(stats_snapshot()["spans"])


def test_spans_close_on_exception_and_stay_balanced():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise ValueError("boom")
    roots = tracer.snapshot()
    outer = _find(roots, "outer")
    assert _span_names(outer["children"]) == {"inner"}
    assert tracer.current() is None


@settings(max_examples=30, deadline=None)
@given(depth=st.integers(min_value=1, max_value=12))
def test_span_nesting_depth_matches_call_depth(depth):
    tracer = Tracer()

    def recurse(levels: int) -> None:
        if levels == 0:
            return
        with tracer.span(f"level{levels}"):
            recurse(levels - 1)

    recurse(depth)
    spans = tracer.snapshot()
    seen = 0
    while spans:
        assert len(spans) == 1
        seen += 1
        spans = spans[0]["children"]
    assert seen == depth
