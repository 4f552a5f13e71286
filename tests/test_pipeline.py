"""The batched checking pipeline returns verdicts identical to the
sequential path, and its shared synthesis cache actually shares."""

from __future__ import annotations

import pytest

from repro.harness import CheckPipeline
from repro.harness.ablation import run_ablation
from repro.harness.table1 import run_table1
from repro.harness.pipeline import hardware_for, model_for, run_job
from repro.harness.verdict_cache import VerdictCache
from repro.litmus import execution_to_litmus
from repro.obs import REGISTRY


@pytest.fixture(scope="module")
def pipeline():
    return CheckPipeline()


@pytest.fixture(scope="module")
def x86_synthesis(pipeline):
    return pipeline.synthesis("x86", 3)


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


def test_synthesis_cache_shares_runs(pipeline):
    assert pipeline.synthesis("x86", 3) is pipeline.synthesis("x86", 3)


def test_observable_batch_matches_direct_loop(pipeline, x86_synthesis):
    tests = [
        execution_to_litmus(x, f"t{i}")
        for i, x in enumerate(x86_synthesis.forbidden + x86_synthesis.allowed)
    ]
    hardware = hardware_for("x86")
    direct = [
        hardware.observable(t.program, t.intended_co) for t in tests
    ]
    batched = pipeline.map(
        run_job,
        [("observable", "x86", t.program, t.intended_co) for t in tests],
    )
    assert batched == direct


def test_table1_x86_pipeline_matches_sequential(x86_synthesis):
    """Regression: the batched pipeline produces the Table 1 x86 row
    verdict-for-verdict identically to a fresh sequential run."""
    sequential = run_table1("x86", 3, synthesis=x86_synthesis)
    piped = run_table1(
        "x86", 3, synthesis=x86_synthesis, pipeline=CheckPipeline(workers=1)
    )
    assert _row_tuples(sequential) == _row_tuples(piped)
    assert sequential.unseen_allow_total == piped.unseen_allow_total
    assert (
        sequential.unseen_allow_lb_shaped == piped.unseen_allow_lb_shaped
    )


def test_table1_x86_expected_shape(pipeline, x86_synthesis):
    table = run_table1("x86", 3, synthesis=x86_synthesis, pipeline=pipeline)
    assert all(row.forbid_seen == 0 for row in table.rows)
    total_allow = sum(r.allow_total for r in table.rows)
    seen_allow = sum(r.allow_seen for r in table.rows)
    assert seen_allow / total_allow >= 0.8


def test_ablation_pipeline_matches_direct(pipeline, x86_synthesis):
    """The batched ablation agrees with per-test model queries."""
    result = run_ablation("x86", 3, synthesis=x86_synthesis, pipeline=pipeline)
    model = model_for("x86tm")
    expected_counts: dict[str, int] = {}
    for x in x86_synthesis.forbidden:
        for axiom in model.violated_axioms(x):
            expected_counts[axiom] = expected_counts.get(axiom, 0) + 1
    assert result.violation_counts == expected_counts
    assert result.total_tests == len(x86_synthesis.forbidden)


def test_run_job_kinds(x86_synthesis):
    x = x86_synthesis.forbidden[0]
    test = execution_to_litmus(x, "job")
    assert run_job(("consistent", "x86tm", (), x)) is False
    assert isinstance(run_job(("violated", "x86tm", (), x)), list)
    assert run_job(
        ("observable", "x86", test.program, test.intended_co)
    ) in (True, False)
    with pytest.raises(ValueError):
        run_job(("unknown",))


def _fork_or_skip():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")


def test_pipeline_multiprocess_fanout_matches_sequential(x86_synthesis):
    """With workers > 1 the fan-out path returns identical verdicts in
    identical order (fork start method; skipped where unavailable)."""
    _fork_or_skip()
    tests = [
        execution_to_litmus(x, f"t{i}")
        for i, x in enumerate(x86_synthesis.forbidden)
    ]
    jobs = [("observable", "x86", t.program, t.intended_co) for t in tests]
    with CheckPipeline(workers=1) as sequential_pipe:
        sequential = sequential_pipe.map(run_job, jobs)
    with CheckPipeline(workers=2) as fanned_pipe:
        fanned = fanned_pipe.map(run_job, jobs)
    assert fanned == sequential


def test_consistency_batch_fanout_matches_sequential(x86_synthesis):
    """The workers=2 fan-out path returns consistency verdicts pinned
    against the sequential path, over every model, in order."""
    _fork_or_skip()
    executions = (x86_synthesis.forbidden + x86_synthesis.allowed)[:24]
    for model_name in ("x86tm", "x86", "powertm", "armv8tm", "cpptm"):
        jobs = [("consistent", model_name, (), x) for x in executions]
        sequential = CheckPipeline(workers=1).map(run_job, jobs)
        with CheckPipeline(workers=2) as fanned:
            assert fanned.map(run_job, jobs) == sequential


def test_table1_fanout_matches_sequential(x86_synthesis):
    """End-to-end: the Table 1 driver produces identical rows whether
    its pipeline is sequential or a two-worker pool."""
    _fork_or_skip()
    sequential = run_table1("x86", 3, synthesis=x86_synthesis)
    with CheckPipeline(workers=2) as pipe:
        fanned = run_table1("x86", 3, synthesis=x86_synthesis, pipeline=pipe)
    assert _row_tuples(sequential) == _row_tuples(fanned)


def test_pool_jobs_keep_the_parents_worker_gauge():
    """A worker's metrics delta carries only the gauges that worker
    set, so merging it leaves ``pipeline.workers`` as the parent set
    it."""
    _fork_or_skip()
    with CheckPipeline(workers=2) as pipe:
        assert pipe.map(_double_second, [("pair", i) for i in range(4)])
    assert REGISTRY.gauge("pipeline.workers").value == 2


def test_close_drains_and_is_idempotent():
    """close() drains the pool gracefully (close+join, not terminate)
    and may be called repeatedly; the context manager routes through
    it."""
    _fork_or_skip()
    pipe = CheckPipeline(workers=2)
    jobs = [("unused", i) for i in range(8)]
    assert pipe.map(_double_second, jobs) == [i * 2 for i in range(8)]
    assert pipe._pool is not None
    pipe.close()
    assert pipe._pool is None
    pipe.close()  # idempotent

    with CheckPipeline(workers=2) as ctx_pipe:
        ctx_pipe.map(_double_second, jobs)
        assert ctx_pipe._pool is not None
    assert ctx_pipe._pool is None


def _double_second(job):
    return job[1] * 2


def _triple(item):
    return item * 3


@pytest.mark.parametrize("workers", [1, 2])
def test_submit_next_result_returns_every_tag(workers):
    """next_result hands back each submitted job once, with its tag;
    with nothing submitted it refuses rather than blocking."""
    if workers > 1:
        _fork_or_skip()
    with CheckPipeline(workers=workers) as pipe:
        for i in range(6):
            pipe.submit(_double_second, ("pair", i), tag=f"t{i}")
        finished = dict(pipe.next_result() for _ in range(6))
        assert finished == {f"t{i}": i * 2 for i in range(6)}
        with pytest.raises(RuntimeError):
            pipe.next_result()


def test_map_records_each_job_under_its_kind(tmp_path):
    """A map with a store records a job-tuple's first element as the
    record kind, the function name otherwise; a rerun replays them."""
    path = tmp_path / "kinds"
    with CheckPipeline(workers=1, cache=path) as pipe:
        assert pipe.map(_double_second, [("pair", 1), ("pair", 2)]) == [2, 4]
        assert pipe.map(_triple, [3]) == [9]
    store = VerdictCache(path)
    assert list(store.recorded("pair").values()) == [2, 4]
    assert list(store.recorded("_triple").values()) == [9]
    with CheckPipeline(workers=1, cache=path) as pipe:
        assert pipe.map(_triple, [3, 4]) == [9, 12]
    assert list(VerdictCache(path).recorded("_triple").values()) == [9, 12]
