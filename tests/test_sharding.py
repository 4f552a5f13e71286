"""Sharded enumeration and the work-stealing scheduler.

The load-bearing pin: sharded synthesis is **byte-identical** to the
sequential enumerator -- same Forbid/Allow suites in the same order,
same candidate count -- at every worker count, and a run resumed on its
store replays recorded chunk ranges instead of recomputing them.
"""

import itertools
import json

import pytest

from repro.enumeration import (
    complete_shard_range,
    complete_skeleton_range,
    completion_count,
    cumulative_counts,
    get_config,
    shard_completion_counts,
    shard_signatures,
    shard_skeletons,
    signature_label,
    synthesise,
)
from repro.enumeration.complete import complete_skeleton
from repro.enumeration.shapes import enumerate_skeletons
from repro.harness import scheduler
from repro.harness.pipeline import CheckPipeline
from repro.harness.scheduler import run_shard_job, synthesise_sharded
from repro.harness.verdict_cache import VerdictCache
from repro.obs import REGISTRY, reset_observability


@pytest.fixture(scope="module")
def config():
    return get_config("x86")


@pytest.fixture(scope="module")
def legacy(config):
    return synthesise("x86", 3)


class TestShardSpace:
    def test_signatures_cover_enumeration_in_order(self, config):
        # Concatenating shards in signature order reproduces the
        # sequential skeleton stream verbatim.
        for bound in (2, 3):
            sequential = list(enumerate_skeletons(config, bound))
            sharded = [
                skeleton
                for signature in shard_signatures(config, bound)
                for skeleton in shard_skeletons(config, signature)
            ]
            assert len(sharded) == len(sequential)
            assert [s.events for s in sharded] == [
                s.events for s in sequential
            ]

    def test_signature_labels(self, config):
        labels = [
            signature_label(sig) for sig in shard_signatures(config, 2)
        ]
        assert len(set(labels)) == len(labels)  # distinct per shard
        assert all(label for label in labels)

    def test_completion_count_matches_enumeration(self, config):
        for skeleton in itertools.islice(
            enumerate_skeletons(config, 3), 120
        ):
            expected = len(list(complete_skeleton(skeleton)))
            assert completion_count(skeleton) == expected

    def test_range_slices_tile_the_skeleton(self, config):
        skeletons = itertools.islice(enumerate_skeletons(config, 3), 40)
        for skeleton in skeletons:
            full = [x.fingerprint() for x in complete_skeleton(skeleton)]
            total = completion_count(skeleton)
            assert total == len(full)
            for split in {0, 1, total // 3, total - 1, total}:
                left = [
                    x.fingerprint()
                    for x in complete_skeleton_range(skeleton, 0, split)
                ]
                right = [
                    x.fingerprint()
                    for x in complete_skeleton_range(skeleton, split, total)
                ]
                assert left + right == full

    def test_shard_range_concatenates_skeletons(self, config):
        signature = next(iter(shard_signatures(config, 3)))
        skeletons = shard_skeletons(config, signature)
        cumulative = cumulative_counts(
            shard_completion_counts(skeletons)
        )
        total = cumulative[-1]
        full = [
            x.fingerprint()
            for x in complete_shard_range(skeletons, cumulative, 0, total)
        ]
        assert len(full) == total
        split = total // 2
        left = [
            x.fingerprint()
            for x in complete_shard_range(skeletons, cumulative, 0, split)
        ]
        right = [
            x.fingerprint()
            for x in complete_shard_range(skeletons, cumulative, split, total)
        ]
        assert left + right == full

    @pytest.mark.parametrize("target", ["x86", "power", "armv8", "cpp", "sc"])
    def test_grouped_counts_match_per_skeleton_counts(self, target):
        # A shard prices each transaction group once; every layout of
        # the group must still get its own skeleton's count.
        config = get_config(target)
        for signature in shard_signatures(config, 3):
            skeletons = shard_skeletons(config, signature)
            assert shard_completion_counts(skeletons) == [
                completion_count(skeleton) for skeleton in skeletons
            ]


def _assert_identical(legacy, sharded):
    assert [x.fingerprint() for x in sharded.forbidden] == [
        x.fingerprint() for x in legacy.forbidden
    ]
    assert [x.fingerprint() for x in sharded.allowed] == [
        x.fingerprint() for x in legacy.allowed
    ]
    assert sharded.candidates_examined == legacy.candidates_examined


class TestShardedSynthesis:
    def test_sequential_pipeline_matches_legacy(self, legacy):
        with CheckPipeline(workers=1) as pipeline:
            _assert_identical(legacy, pipeline.synthesis("x86", 3))

    def test_pool_matches_legacy_and_workers_do_not_matter(self, legacy):
        # The acceptance pin: byte-identical folds at every worker count.
        for workers in (2, 4):
            with CheckPipeline(workers=workers) as pipeline:
                _assert_identical(legacy, pipeline.synthesis("x86", 3))

    @pytest.mark.parametrize(
        "target",
        [
            "power",
            pytest.param("armv8", marks=pytest.mark.slow),
            pytest.param("cpp", marks=pytest.mark.slow),
        ],
    )
    def test_every_target_matches_sequential(self, target):
        # x86 has the fewest transaction groups; these targets have the
        # most, and their largest shards span several chunks, which
        # workers run in any order and steal from each other.
        sequential = synthesise(target, 3)
        for workers in (1, 2):
            with CheckPipeline(workers=workers) as pipeline:
                _assert_identical(sequential, pipeline.synthesis(target, 3))

    def test_no_steals_at_one_worker(self):
        reset_observability()
        with CheckPipeline(workers=1) as pipeline:
            pipeline.synthesis("x86", 3)
        counters = REGISTRY.snapshot()["counters"]
        assert counters.get("scheduler.steals", 0) == 0
        assert counters.get("scheduler.chunks", 0) > 0
        reset_observability()

    def test_per_shard_counters_exist(self):
        reset_observability()
        with CheckPipeline(workers=1) as pipeline:
            pipeline.synthesis("x86", 2)
        counters = REGISTRY.snapshot()["counters"]
        shard_counters = [
            name
            for name in counters
            if name.startswith("synthesis.shard.x86.b2.")
        ]
        assert shard_counters
        total = sum(
            counters[name]
            for name in shard_counters
            if name.endswith(".completions")
        )
        assert total == counters["enumeration.x86.bound2.candidates"]
        reset_observability()

    def test_checkpoint_resume_replays_chunks(
        self, tmp_path, legacy, monkeypatch
    ):
        reset_observability()
        root = tmp_path / "store"
        with monkeypatch.context() as uncompacted:
            uncompacted.setattr(VerdictCache, "compact", lambda self: None)
            with CheckPipeline(workers=1, cache=root) as pipeline:
                _assert_identical(legacy, pipeline.synthesis("x86", 3))
        first = REGISTRY.snapshot()["counters"]["scheduler.chunks"]
        assert first > 0
        # Keep only the chunk and count records: a run killed just
        # before recording its shards.
        (segment,) = root.glob("shards-*.jsonl")
        segment.write_text(
            "".join(
                line + "\n"
                for line in segment.read_text().splitlines()
                if json.loads(line)["kind"] != "shard"
            )
        )
        reset_observability()
        with CheckPipeline(workers=1, cache=root) as pipeline:
            _assert_identical(legacy, pipeline.synthesis("x86", 3))
        resumed = REGISTRY.snapshot()["counters"].get("scheduler.chunks", 0)
        assert resumed == 0  # every range answered from its chunk record
        reset_observability()

    @pytest.mark.parametrize("chunk", [scheduler.CHUNK, 100])
    def test_chunk_ranges_are_fixed_at_every_worker_count(
        self, tmp_path, legacy, monkeypatch, chunk
    ):
        # Each shard's chunks are [k*CHUNK, min((k+1)*CHUNK, completions))
        # whoever runs them, so uncompacted stores filled at different
        # worker counts record the same chunk keys.  The small chunk
        # size splits the larger x86 bound-3 shards into several.
        monkeypatch.setattr(scheduler, "CHUNK", chunk)
        monkeypatch.setattr(VerdictCache, "compact", lambda self: None)
        keys = {}
        for workers in (1, 2):
            root = tmp_path / f"w{workers}"
            with CheckPipeline(workers=workers, cache=root) as pipeline:
                _assert_identical(legacy, pipeline.synthesis("x86", 3))
            records = [
                json.loads(line)
                for segment in sorted(root.glob("shards-*.jsonl"))
                for line in segment.read_text().splitlines()
            ]
            completions = {}
            ranges = {}
            for record in records:
                payload = record["result"]
                if record["kind"] == "synth_count":
                    shard = (payload["bound"], tuple(payload["sig"]))
                    completions[shard] = payload["completions"]
                elif record["kind"] == "synth_chunk":
                    shard = (payload["bound"], tuple(payload["sig"]))
                    ranges.setdefault(shard, []).append(
                        (payload["start"], payload["stop"])
                    )
            assert set(ranges) <= set(completions)
            for shard, total in completions.items():
                assert sorted(ranges.get(shard, [])) == [
                    (start, min(start + chunk, total))
                    for start in range(0, total, chunk)
                ]
            keys[workers] = sorted(
                r["key"] for r in records if r["kind"] == "synth_chunk"
            )
        assert keys[1] == keys[2]

    def test_verdict_cache_warm_run_skips_verdicts(self, tmp_path, legacy):
        reset_observability()
        with CheckPipeline(workers=1, cache=tmp_path / "shards") as p:
            _assert_identical(legacy, p.synthesis("x86", 3))
        reset_observability()
        with CheckPipeline(workers=1, cache=tmp_path / "shards") as p:
            _assert_identical(legacy, p.synthesis("x86", 3))
        # Every shard replays from its record: no chunk judges a verdict.
        counters = REGISTRY.snapshot()["counters"]
        lookups = counters["verdict_cache.shards.lookups"]
        assert lookups > 0
        assert counters["verdict_cache.shards.hits"] == lookups
        assert counters.get("scheduler.chunks", 0) == 0
        reset_observability()


class ShardBomb(RuntimeError):
    """What the one bombed shard job raises."""


#: ``(signature, start)`` of the chunk :func:`_bomb_shard_job` fails.
_BOMB_CHUNK: dict = {}


def _bomb_shard_job(job):
    """``run_shard_job``, except that one chunk raises.  Module-level
    so the pool pickles it by name; forked workers inherit the fuse."""
    if job[0] == "synth_chunk" and (tuple(job[3]), job[4]) == _BOMB_CHUNK[
        "at"
    ]:
        raise ShardBomb(f"chunk at {job[4]}")
    return run_shard_job(job)


@pytest.mark.parametrize("workers", [1, 2])
def test_shard_job_error_surfaces_on_caller_thread(
    monkeypatch, config, workers
):
    """A shard job raising inside synthesise_sharded re-raises the
    original exception on the calling thread, after the failing job's
    metrics delta is merged; the pipeline then closes without hanging."""
    import threading

    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
    signature = next(
        sig
        for sig in shard_signatures(config, 2)
        if sum(shard_completion_counts(shard_skeletons(config, sig)))
    )
    # Each nonempty shard's first chunk starts at 0 exactly once.
    monkeypatch.setitem(_BOMB_CHUNK, "at", (signature, 0))
    monkeypatch.setattr(scheduler, "run_shard_job", _bomb_shard_job)
    reset_observability()
    pipeline = CheckPipeline(workers=workers)
    with pytest.raises(ShardBomb, match="chunk at 0"):
        synthesise_sharded("x86", 2, pipeline=pipeline)
    assert REGISTRY.counter("pipeline.jobs.failed").value == 1
    closer = threading.Thread(target=pipeline.close, daemon=True)
    closer.start()
    closer.join(timeout=60)
    assert not closer.is_alive()
    assert pipeline._pool is None
    reset_observability()


class TestStatsRender:
    def test_per_shard_summary_and_unknown_keys(self):
        from repro.harness.cli import _render_stats_dump

        dump = {
            "counters": {
                "synthesis.shard.x86.b3.RW+W.completions": 120,
                "synthesis.shard.x86.b3.RW+W.survivors": 2,
                "synthesis.shard.x86.b3.RW+W.chunks": 3,
                "synthesis.shard.x86.b3.RW+W.steals": 1,
                "scheduler.chunks": 3,
            },
            "timers": {
                "synthesis.shard.x86.b3.RW+W.seconds": {
                    "count": 3,
                    "total": 0.25,
                    "max": 0.1,
                }
            },
            "novel_section": {"answer": 42},
        }
        text = _render_stats_dump(dump)
        assert "synthesis shards:" in text
        assert "x86.b3.RW+W" in text
        assert "completions=120" in text
        assert "steals=1" in text
        # Shard counters fold into the summary, not the counter dump...
        assert "synthesis.shard.x86.b3.RW+W.completions" not in text
        # ...while ordinary counters still list normally.
        assert "scheduler.chunks" in text
        # Unknown top-level keys render instead of vanishing.
        assert "novel_section" in text and "42" in text
