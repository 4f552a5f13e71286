"""Tests for the profiling/trace-export layer (PR 9).

Covers the four tentpole pieces end to end:

* Chrome trace export: a golden-file check over a fixed span forest,
  and a real ``workers=2`` pipeline run asserting every job span lands
  in exactly one worker pid lane;
* the per-IR-plan-node profiler: samples, hot-node table, calibration
  report, dot export, cross-process flush/merge;
* the JSONL run-event log (torn-tail tolerance, pipeline integration);
* the CLI satellites: ``stats`` renders span trees and histograms and
  tolerates malformed timer records.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.catalog import classics
from repro.harness.cli import _render_stats_dump, main as cli_main
from repro.harness.pipeline import CheckPipeline
from repro.models import get_model
from repro.obs import (
    PROFILER,
    REGISTRY,
    TRACER,
    RunLog,
    chrome_trace_events,
    read_runlog,
    reset_observability,
    stats_snapshot,
    write_chrome_trace,
)
from repro.obs.profile import PlanProfiler
from repro.obs.trace_export import trace_pid_lanes

GOLDEN = Path(__file__).parent / "data" / "golden_trace.json"

#: A fixed span forest: one driver root, a synthesis child, and a batch
#: with two grafted worker jobs (pid-tagged, as the pipeline tags them).
FIXED_FOREST = [
    {
        "name": "table1:x86",
        "started": 100.0,
        "elapsed": 2.5,
        "children": [
            {
                "name": "synthesis:x86",
                "started": 100.1,
                "elapsed": 1.0,
                "children": [],
            },
            {
                "name": "pipeline.batch",
                "started": 101.2,
                "elapsed": 1.2,
                "children": [
                    {
                        "name": "job:observable",
                        "started": 101.25,
                        "elapsed": 0.5,
                        "children": [],
                        "tags": {"pid": 4242},
                    },
                    {
                        "name": "job:observable",
                        "started": 101.8,
                        "elapsed": 0.55,
                        "children": [],
                        "tags": {"pid": 4243},
                    },
                ],
            },
        ],
    }
]


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


def test_chrome_trace_matches_golden_file():
    events = chrome_trace_events(FIXED_FOREST, main_pid=1)
    assert events == json.loads(GOLDEN.read_text())


def test_chrome_trace_shape_and_lanes():
    events = chrome_trace_events(FIXED_FOREST, main_pid=1)
    lanes = trace_pid_lanes(events)
    assert set(lanes) == {1, 4242, 4243}
    # Children inherit the lane of the nearest tagged ancestor; the
    # untagged driver tree stays in the main lane.
    assert [e["name"] for e in lanes[1]] == [
        "table1:x86",
        "synthesis:x86",
        "pipeline.batch",
    ]
    assert [e["name"] for e in lanes[4242]] == ["job:observable"]
    # Timestamps re-base to the earliest span; µs units.
    root = lanes[1][0]
    assert root["ts"] == 0 and root["dur"] == 2_500_000
    # One process_name metadata row per lane.
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["pid"] for m in meta} == {1, 4242, 4243}
    names = {m["pid"]: m["args"]["name"] for m in meta}
    assert names[1] == "main" and names[4242] == "worker-4242"


def test_write_chrome_trace_is_json_loadable(tmp_path):
    reset_observability()
    with TRACER.span("outer"):
        with TRACER.span("inner"):
            pass
    path = write_chrome_trace(tmp_path / "trace.json")
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
    assert names == ["outer", "inner"]


def _tiny_job(item):
    time.sleep(0.02)
    return item * 2


def test_pool_jobs_land_in_exactly_one_worker_lane():
    """With workers=2, every job span ships from its worker and grafts
    under the parent's batch span exactly once, tagged with that
    worker's pid -- never duplicated into the main lane."""
    reset_observability()
    items = list(range(8))
    with CheckPipeline(workers=2) as pipeline:
        results = pipeline.map(_tiny_job, items)
    assert results == [i * 2 for i in items]
    spans = TRACER.snapshot()
    batch = next(s for s in spans if s["name"] == "pipeline.batch")
    jobs = [c for c in batch["children"] if c["name"] == "job:_tiny_job"]
    assert len(jobs) == len(items)  # each job exactly once
    worker_pids = {job["tags"]["pid"] for job in jobs}
    assert os.getpid() not in worker_pids  # all shipped from workers
    events = chrome_trace_events(spans, main_pid=os.getpid())
    lanes = trace_pid_lanes(events)
    job_events = [
        e
        for lane in lanes.values()
        for e in lane
        if e["name"] == "job:_tiny_job"
    ]
    assert len(job_events) == len(items)
    for event in job_events:
        assert event["pid"] in worker_pids
    # The merged trace has the main lane plus at least one worker lane.
    assert os.getpid() in lanes and len(lanes) >= 2


def test_sequential_jobs_nest_under_batch_span():
    reset_observability()
    with CheckPipeline(workers=1) as pipeline:
        pipeline.map(_tiny_job, [1, 2])
    batch = next(
        s for s in TRACER.snapshot() if s["name"] == "pipeline.batch"
    )
    names = [c["name"] for c in batch["children"]]
    assert names == ["job:_tiny_job", "job:_tiny_job"]


# ---------------------------------------------------------------------------
# Per-plan-node profiler
# ---------------------------------------------------------------------------


@pytest.fixture
def profiled():
    reset_observability()
    PROFILER.enable()
    yield PROFILER
    reset_observability()


def test_profiler_attributes_samples_to_axioms(profiled):
    model = get_model("x86")
    x = classics.sb()
    assert model.consistent(x) is True
    snap = profiled.snapshot()
    assert snap["nodes"], "profiling a real check must record samples"
    axioms = {c.name for c in model.plan().constraints}
    sampled = {n["constraint"] for n in snap["nodes"]}
    assert sampled & axioms
    total_self = sum(n["self_seconds"] for n in snap["nodes"])
    assert total_self > 0.0
    # Self time never exceeds inclusive time, rows are non-negative.
    for node in snap["nodes"]:
        assert 0.0 <= node["self_seconds"] <= node["seconds"] + 1e-9
        assert node["rows"] >= 0 and node["count"] >= 0


def test_executor_counts_node_memo_hits(profiled):
    from repro import ir

    model = get_model("x86")
    x = classics.sb()
    model.consistent(x)  # the runner memoises the derived ``fr`` rows
    total = lambda: sum(n["hits"] for n in profiled.snapshot()["nodes"])
    before = total()
    # Asking ``evaluate`` for an already-evaluated node answers from the
    # per-execution memo, which the profiler counts as a hit.
    fr = ir.rel("fr")
    assert ir.evaluate(fr, x) == ir.fallback_value(fr, x)
    assert total() == before + 1


def test_profiler_hot_table_and_calibration_parse(profiled):
    model = get_model("x86")
    model.consistent(classics.sb())
    table = profiled.hot_table(5)
    assert "self-s" in table and "x86/" in table
    reports = profiled.calibration()
    assert [r["model"] for r in reports] == ["x86"]
    report = reports[0]
    assert set(report["observed_seconds"]) == set(report["scheduled"])
    assert isinstance(report["agrees"], bool)
    text = profiled.calibration_report()
    assert "x86" in text
    # The full snapshot JSON round-trips.
    assert json.loads(json.dumps(profiled.snapshot()))["plans"]["x86"]


def test_profiler_dot_export_names_plan_nodes(profiled):
    model = get_model("x86")
    model.consistent(classics.sb())
    dot = profiled.dot(model.plan())
    assert dot.startswith('digraph "x86"')
    assert "evals" in dot  # at least one node annotated with samples
    for constraint in model.plan().constraints:
        assert constraint.name in dot


def test_profiler_flush_merge_round_trip():
    worker = PlanProfiler()
    worker.enable()
    with worker.constraint("m", "ax"):
        worker.begin()
        worker.end(_FakeTerm(7), 0.5, (0b11, 0b01))
        worker.hit(_FakeTerm(7))
    delta = worker.flush_delta()
    assert worker.flush_delta() is None  # drained
    parent = PlanProfiler()
    parent.merge(delta)
    parent.merge(None)  # tolerated
    [node] = parent.snapshot()["nodes"]
    assert node["model"] == "m" and node["constraint"] == "ax"
    assert node["count"] == 1 and node["hits"] == 1
    assert node["rows"] == 3 and node["seconds"] == pytest.approx(0.5)


def test_profiler_self_time_subtracts_children():
    profiler = PlanProfiler()
    profiler.begin()  # parent node starts
    profiler.begin()  # child node starts
    profiler.end(_FakeTerm(1), 0.3, 0)  # child: 0.3s, no grandchildren
    profiler.end(_FakeTerm(2), 1.0, 0)  # parent: 1.0s inclusive
    by_uid = {n["uid"]: n for n in profiler.snapshot()["nodes"]}
    assert by_uid[1]["self_seconds"] == pytest.approx(0.3)
    assert by_uid[2]["self_seconds"] == pytest.approx(0.7)


def test_profiler_disabled_records_nothing():
    reset_observability()
    assert PROFILER.enabled is False
    get_model("x86").consistent(classics.sb())
    assert PROFILER.snapshot()["nodes"] == []


class _FakeTerm:
    """Just enough of a Term for profiler unit tests."""

    op = "seq"
    args = ()

    def __init__(self, uid: int):
        self.uid = uid


# ---------------------------------------------------------------------------
# Run-event log
# ---------------------------------------------------------------------------


def test_runlog_appends_and_reads_back(tmp_path):
    path = tmp_path / "run.events.jsonl"
    log = RunLog(path)
    log.event("run.start", workers=2)
    log.event("run.end", jobs=5)
    log.close()
    events = read_runlog(path)
    assert [e["type"] for e in events] == ["run.start", "run.end"]
    assert events[0]["workers"] == 2 and "ts" in events[0]


def test_runlog_survives_torn_tail(tmp_path):
    path = tmp_path / "run.events.jsonl"
    log = RunLog(path)
    log.event("run.start")
    log.close()
    with path.open("a") as handle:
        handle.write('{"type": "run.batch", "trunc')  # crash mid-append
    log = RunLog(path)
    log.event("run.end")
    log.close()
    assert [e["type"] for e in read_runlog(path)] == ["run.start", "run.end"]


def test_pipeline_writes_runlog_next_to_checkpoint(tmp_path):
    checkpoint = tmp_path / "t1.jsonl"
    with CheckPipeline(workers=1, checkpoint=checkpoint) as pipeline:
        pipeline.map(_tiny_job, [1, 2, 3])
    events = read_runlog(tmp_path / "t1.events.jsonl")
    types = [e["type"] for e in events]
    assert types[0] == "run.start" and types[-1] == "run.end"
    assert "run.batch" in types
    start = events[0]
    assert start["workers"] == 1 and start["checkpoint"] == str(checkpoint)
    batch = next(e for e in events if e["type"] == "run.batch")
    assert batch["jobs"] == 3 and batch["seconds"] >= 0
    assert events[-1]["jobs"] == 3


def test_pipeline_without_checkpoint_writes_no_runlog(tmp_path):
    with CheckPipeline(workers=1) as pipeline:
        pipeline.map(_tiny_job, [1])
        assert pipeline.runlog is None


# ---------------------------------------------------------------------------
# CLI satellites: stats rendering
# ---------------------------------------------------------------------------


def test_render_stats_dump_shows_span_tree_with_shares():
    dump = {
        "hit_rates": {},
        "timers": {},
        "spans": [
            {
                "name": "table1:x86",
                "elapsed": 2.0,
                "children": [
                    {
                        "name": "pipeline.batch",
                        "elapsed": 1.0,
                        "children": [],
                        "tags": {"pid": 7},
                    }
                ],
            }
        ],
    }
    text = _render_stats_dump(dump)
    assert "spans:" in text
    assert "table1:x86" in text
    assert "% of parent)" in text  # child annotated with its share
    assert "pid=7" in text
    # The batch is half its parent.
    assert " 50.0% of parent" in text


def test_render_stats_dump_elides_huge_span_fanout():
    children = [
        {"name": f"job:{i}", "elapsed": 0.1, "children": []}
        for i in range(40)
    ]
    dump = {
        "spans": [{"name": "batch", "elapsed": 4.0, "children": children}]
    }
    text = _render_stats_dump(dump)
    assert "more children" in text


def test_render_stats_dump_tolerates_malformed_timers():
    dump = {
        "timers": {
            "good": {"count": 2, "total": 1.0, "max": 0.7},
            "missing.count": {"total": 1.0},
            "not.a.dict": 3.5,
            "bad.types": {"count": "many", "total": "lots"},
        },
    }
    text = _render_stats_dump(dump)  # must not raise
    assert "good" in text and "mean=0.500000s" in text
    assert text.count("partial record") == 3


def test_render_stats_dump_shows_histograms_and_profile():
    dump = {
        "histograms": {
            "pipeline.job.seconds": {
                "count": 4,
                "total": 1.0,
                "max": 0.5,
                "p50": 0.25,
                "p90": 0.5,
                "p99": 0.5,
            },
            "broken": {"count": None},
        },
        "profile": {
            "nodes": [
                {
                    "model": "x86",
                    "constraint": "Order",
                    "label": "seq#9",
                    "count": 3,
                    "hits": 1,
                    "self_seconds": 0.01,
                    "seconds": 0.02,
                }
            ]
        },
    }
    text = _render_stats_dump(dump)
    assert "latency histograms:" in text
    assert "p50=0.250000s" in text
    assert "partial record" in text
    assert "hot plan nodes" in text and "x86/Order" in text


def test_stats_snapshot_includes_histograms_and_profile_sections():
    reset_observability()
    REGISTRY.histogram("pipeline.job.seconds").observe(0.1)
    snap = stats_snapshot()
    assert snap["histograms"]["pipeline.job.seconds"]["count"] == 1
    assert "profile" not in snap  # disabled profiler stays out
    PROFILER.enable()
    get_model("x86").consistent(classics.sb())
    assert stats_snapshot()["profile"]["nodes"]
    reset_observability()


def test_cli_stats_subcommand_renders_new_dump(tmp_path, capsys):
    reset_observability()
    REGISTRY.histogram("pipeline.job.seconds").observe(0.1)
    with TRACER.span("root"):
        pass
    from repro.obs import write_stats

    path = tmp_path / "metrics.json"
    write_stats(path)
    assert cli_main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "latency histograms:" in out and "spans:" in out
