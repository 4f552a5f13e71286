"""Sharded enumeration and the work-stealing scheduler.

The load-bearing pin: sharded synthesis is **byte-identical** to the
sequential enumerator -- same Forbid/Allow suites in the same order,
same candidate count -- at every worker count, and a checkpointed run
resumes by replaying recorded chunk ranges instead of recomputing.
"""

import itertools

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
from repro.harness.pipeline import CheckPipeline
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


def _assert_identical(legacy, sharded):
    assert [x.fingerprint() for x in sharded.forbidden] == [
        x.fingerprint() for x in legacy.forbidden
    ]
    assert [x.fingerprint() for x in sharded.allowed] == [
        x.fingerprint() for x in legacy.allowed
    ]
    assert sharded.candidates_examined == legacy.candidates_examined
    assert sharded.complete == legacy.complete


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
        # most, and chunk boundaries split them differently at each
        # worker count.
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

    def test_checkpoint_resume_replays_chunks(self, tmp_path, legacy):
        reset_observability()
        path = tmp_path / "synth.jsonl"
        with CheckPipeline(workers=1, checkpoint=path) as pipeline:
            _assert_identical(legacy, pipeline.synthesis("x86", 3))
        first = REGISTRY.snapshot()["counters"]["scheduler.chunks"]
        assert first > 0
        reset_observability()
        with CheckPipeline(workers=1, checkpoint=path) as pipeline:
            _assert_identical(legacy, pipeline.synthesis("x86", 3))
        resumed = REGISTRY.snapshot()["counters"].get("scheduler.chunks", 0)
        assert resumed == 0  # every range answered from the checkpoint
        reset_observability()

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
