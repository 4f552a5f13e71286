"""Resume: stable job digests, job records in the store, crash recovery.

The headline property: a pipeline run killed mid-batch and restarted
on its store directory produces results identical to an uninterrupted
run -- sequentially and under multiprocessing fan-out.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import CheckPipeline
from repro.harness import table1 as table1_module
from repro.harness.table1 import run_table1
from repro.harness import verdict_cache
from repro.harness.pipeline import run_job
from repro.harness.verdict_cache import VerdictCache, _canon, job_digest
from repro.litmus import execution_to_litmus
from repro.obs import REGISTRY, reset_observability, stats_snapshot


@pytest.fixture(scope="module")
def x86_synthesis():
    return CheckPipeline().synthesis("x86", 3)


@pytest.fixture(scope="module")
def x86_jobs(x86_synthesis):
    tests = [
        execution_to_litmus(x, f"ckpt-{i}")
        for i, x in enumerate(x86_synthesis.forbidden + x86_synthesis.allowed)
    ]
    return [
        ("observable", "x86", t.program, t.intended_co) for t in tests
    ]


# ---------------------------------------------------------------------------
# Digest stability
# ---------------------------------------------------------------------------


def test_digest_is_deterministic_per_process(x86_jobs):
    assert [job_digest(j) for j in x86_jobs] == [
        job_digest(j) for j in x86_jobs
    ]


def test_digest_distinguishes_jobs(x86_jobs):
    digests = {job_digest(j) for j in x86_jobs}
    assert len(digests) == len(x86_jobs)


def test_digest_distinguishes_kind_and_model(x86_synthesis):
    x = x86_synthesis.forbidden[0]
    assert job_digest(("consistent", "x86tm", (), x)) != job_digest(
        ("violated", "x86tm", (), x)
    )
    assert job_digest(("consistent", "x86tm", (), x)) != job_digest(
        ("consistent", "x86", (), x)
    )
    assert job_digest(("consistent", "x86tm", (), x)) != job_digest(
        ("consistent", "x86tm", ("TxnOrder",), x)
    )


def test_canon_rejects_unknown_objects():
    with pytest.raises(TypeError):
        _canon(object())


_SEED_SNIPPET = """
import sys
sys.path.insert(0, "src")
from repro.enumeration import enumerate_executions, get_config
from repro.harness.verdict_cache import job_digest
config = get_config("x86")
for i, x in enumerate(enumerate_executions(config, 2)):
    print(job_digest(("consistent", "x86tm", (), x)))
    if i >= 9:
        break
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_digest_stable_across_hash_seeds(seed):
    """The digest survives hash randomisation -- the property that makes
    cross-run resume sound (``hash()``/set iteration order do not)."""
    runs = [
        subprocess.run(
            [sys.executable, "-c", _SEED_SNIPPET],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parent.parent,
            env={"PYTHONHASHSEED": s, "PATH": "/usr/bin:/bin"},
        ).stdout
        for s in ("0", seed)
    ]
    assert runs[0] == runs[1]
    assert runs[0].strip()


# ---------------------------------------------------------------------------
# Job records in the store
# ---------------------------------------------------------------------------


def _jobs(root, kind: str = "job") -> dict:
    """The job records of one kind a fresh reader of ``root`` serves."""
    return dict(VerdictCache(root).recorded(kind))


def _keyed(results: dict) -> dict:
    """``results`` by job, keyed the way the store keys them."""
    return {job_digest(job): result for job, result in results.items()}


def test_store_roundtrip_and_reload(tmp_path):
    store = VerdictCache(tmp_path)
    assert store.lookup("observable", "d1") is None
    store.record("observable", "d1", True)
    store.record("violated", "d2", ["TxnOrder"])
    store.close()

    assert _jobs(tmp_path, "observable") == _keyed({"d1": True})
    assert _jobs(tmp_path, "violated") == _keyed({"d2": ["TxnOrder"]})
    reader = VerdictCache(tmp_path)
    assert reader.lookup("observable", "d1") is True
    assert reader.lookup("observable", "d2") is None


def test_store_tolerates_truncated_last_line(tmp_path):
    """A crash mid-append leaves a half-written record; reload drops it
    (that job simply re-runs) instead of failing."""
    store = VerdictCache(tmp_path)
    store.record("job", "d1", True)
    store.record("job", "d2", False)
    store.close()
    (segment,) = tmp_path.glob("shards-*.jsonl")
    segment.write_text(segment.read_text() + '{"key": "d3", "kin')  # torn

    reloaded = VerdictCache(tmp_path)
    assert reloaded.recorded("job") == _keyed({"d1": True, "d2": False})
    # The store stays appendable after a torn tail.
    reloaded.record("job", "d4", True)
    reloaded.close()
    assert _jobs(tmp_path) == _keyed({"d1": True, "d2": False, "d4": True})


def _line(**record) -> str:
    return json.dumps(dict(record, code=verdict_cache.code_digest())) + "\n"


def test_store_tolerates_blank_lines(tmp_path):
    (tmp_path / "shards-000001.jsonl").write_text(
        "\n" + _line(key=job_digest("d1"), kind="job", result=7) + "\n"
    )
    assert _jobs(tmp_path) == _keyed({"d1": 7})


def test_store_skips_malformed_records(tmp_path):
    """Parseable but malformed lines cost their job a re-run, never a
    crash."""
    (tmp_path / "shards-000001.jsonl").write_text(
        "{}\n"
        "[1]\n"
        + _line(key="no-result", kind="job")
        + _line(key=["not", "a", "string"], kind="job", result=1)
        + _line(key="no-kind", result=1)
        + _line(key=job_digest("d1"), kind="job", result=7)
        + '{"code": "c", "key": "torn", "res'
    )
    store = VerdictCache(tmp_path)
    assert store.recorded("job") == _keyed({"d1": 7})
    store.record("job", "d2", 8)
    store.close()
    assert _jobs(tmp_path) == _keyed({"d1": 7, "d2": 8})


def test_store_ignores_records_of_other_code(tmp_path, monkeypatch):
    store = VerdictCache(tmp_path)
    store.record("job", "d1", True)
    store.close()
    (segment,) = tmp_path.glob("shards-*.jsonl")
    record = json.loads(segment.read_text())
    assert record["code"] == verdict_cache.code_digest()
    bare = {"kind": "job", "key": job_digest("bare"), "result": 1}
    with segment.open("a") as f:
        f.write(json.dumps(bare))
    assert _jobs(tmp_path) == _keyed({"d1": True})
    monkeypatch.setattr(verdict_cache, "code_digest", lambda: "edited")
    assert _jobs(tmp_path) == {}
    monkeypatch.setattr(verdict_cache, "code_digest", lambda: None)
    assert _jobs(tmp_path) == {}


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------

_BOMB_FUSE = {"remaining": None}


def _bomb_run_job(job):
    """A ``run_job`` stand-in that dies after a set number of calls.

    Module-level (and counting via a module-level fuse) so the pool can
    pickle it by name; forked workers inherit the fuse and count their
    own calls, so a fan-out run also dies mid-batch.
    """
    if _BOMB_FUSE["remaining"] is not None:
        if _BOMB_FUSE["remaining"] <= 0:
            raise RuntimeError("simulated crash")
        _BOMB_FUSE["remaining"] -= 1
    return run_job(job)


@pytest.mark.parametrize("workers", [1, 2])
def test_crash_midbatch_then_resume_is_identical(
    tmp_path, monkeypatch, x86_jobs, workers
):
    """Kill the pipeline after N jobs, restart on its store, and the
    merged results are byte-identical to an uninterrupted run."""
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
    uninterrupted = CheckPipeline(workers=1).map(run_job, x86_jobs)

    path = tmp_path / f"crash-{workers}"
    monkeypatch.setitem(_BOMB_FUSE, "remaining", len(x86_jobs) // 2)
    with pytest.raises(RuntimeError, match="simulated crash"):
        with CheckPipeline(workers=workers, cache=path) as dying:
            dying.map(_bomb_run_job, x86_jobs)

    assert 0 < len(_jobs(path, "observable")) < len(x86_jobs)

    with CheckPipeline(workers=1, cache=path) as resumed_pipe:
        resumed = resumed_pipe.map(run_job, x86_jobs)
    assert json.dumps(resumed) == json.dumps(uninterrupted)
    # and every job is now on disk, so a further resume is pure replay
    reset_observability()
    with CheckPipeline(workers=1, cache=path) as replay_pipe:
        assert json.dumps(replay_pipe.map(run_job, x86_jobs)) == json.dumps(
            uninterrupted
        )
    assert REGISTRY.counter("pipeline.jobs.completed").value == 0
    reset_observability()


def _row_tuples(table):
    return [
        (
            row.events,
            row.forbid_total,
            row.forbid_seen,
            row.allow_total,
            row.allow_seen,
        )
        for row in table.rows
    ]


def test_table1_killed_and_resumed_matches_uninterrupted(
    tmp_path, monkeypatch, x86_synthesis
):
    """The acceptance criterion: a Table 1 run killed mid-batch and
    restarted on its store produces identical verdicts, and the stats
    snapshot shows nonzero cache hit rates and stage timings."""
    uninterrupted = run_table1("x86", 3, synthesis=x86_synthesis)

    path = tmp_path / "table1"
    monkeypatch.setitem(_BOMB_FUSE, "remaining", 5)
    monkeypatch.setattr(table1_module, "run_job", _bomb_run_job)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_table1("x86", 3, synthesis=x86_synthesis, cache=path)
    assert len(_jobs(path, "observable")) > 0

    monkeypatch.setattr(table1_module, "run_job", run_job)
    reset_observability()
    resumed = run_table1("x86", 3, synthesis=x86_synthesis, cache=path)
    assert _row_tuples(resumed) == _row_tuples(uninterrupted)
    assert resumed.unseen_allow_total == uninterrupted.unseen_allow_total

    stats = stats_snapshot()
    assert stats["hit_rates"].get("pipeline.checkpoint", 0) > 0
    job_timer = stats["timers"]["pipeline.job.seconds"]
    assert job_timer["count"] > 0 and job_timer["total"] > 0
    assert stats["timers"]["pipeline.batch.seconds"]["count"] > 0
