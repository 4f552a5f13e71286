"""The shard layer of the verdict cache: whole shards replayed on a warm run.

A warm synthesis rerun looks every shard up before counting or
scheduling it; a hit's stored payload joins the fold like a checkpointed
range.  The pins: the folded result is identical to the sequential
enumerator's whether shards come from disk or not; a warm run does no
verdict work at all; any change to what a shard depends on -- the code
(models included), the bound, the signature -- misses; and damaged,
partial, stale or double-counted records never reach the fold.
"""

import json
import multiprocessing

import pytest

from repro.enumeration import get_config, shard_signatures, synthesise
from repro.harness import scheduler, verdict_cache
from repro.harness.checkpoint import CheckpointStore, job_digest
from repro.harness.pipeline import CheckPipeline
from repro.harness.verdict_cache import (
    VerdictCache,
    shard_key,
    source_digest,
)
from repro.obs import REGISTRY, reset_observability

from .test_sharding import _assert_identical


@pytest.fixture(scope="module")
def legacy():
    return synthesise("x86", 3)


@pytest.fixture(autouse=True)
def fresh_metrics():
    reset_observability()
    yield
    reset_observability()
    verdict_cache.deactivate()


def _shard_count(*bounds: int) -> int:
    config = get_config("x86")
    return sum(len(list(shard_signatures(config, n))) for n in bounds)


def _counters() -> dict:
    return REGISTRY.snapshot()["counters"]


def _synth(root, workers: int = 1, bound: int = 3, **options):
    """One x86 synthesis through a fresh pipeline; resets the metrics
    first, so the counters afterwards describe this run alone."""
    reset_observability()
    with CheckPipeline(
        workers=workers, cache=root, runlog=False, **options
    ) as p:
        return p.synthesis("x86", bound)


def _segment_bytes(root, prefix: str = "segment") -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted(root.glob(f"{prefix}-*.jsonl"))
    }


def _shard_lines(root) -> list[str]:
    return [
        line
        for segment in sorted(root.glob("shards-*.jsonl"))
        for line in segment.read_text().splitlines()
    ]


class TestWarmRuns:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_warm_and_uncached_match_legacy(
        self, tmp_path, legacy, workers
    ):
        _assert_identical(legacy, _synth(tmp_path / "c", workers))
        shards = _shard_count(2, 3)
        assert _counters()["verdict_cache.shards.appends"] == shards
        _assert_identical(legacy, _synth(tmp_path / "c", workers))
        assert _counters()["verdict_cache.shards.hits"] == shards
        _assert_identical(legacy, _synth(None, workers))
        assert _counters().get("verdict_cache.shards.lookups", 0) == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_run_does_no_verdict_work(self, tmp_path, legacy, workers):
        root = tmp_path / "c"
        _synth(root, workers)
        verdicts = _segment_bytes(root)
        assert verdicts
        reset_observability()
        with CheckPipeline(workers=workers, cache=root, runlog=False) as p:
            _assert_identical(legacy, p.synthesis("x86", 3))
            assert p._pool is None
            assert not p.verdict_cache._loaded  # segments never parsed
        counters = _counters()
        shards = _shard_count(2, 3)
        assert counters["verdict_cache.shards.lookups"] == shards
        assert counters["verdict_cache.shards.hits"] == shards
        assert counters.get("verdict_cache.lookups", 0) == 0
        assert counters.get("scheduler.chunks", 0) == 0
        assert counters.get("verdict_cache.shards.appends", 0) == 0
        assert _segment_bytes(root) == verdicts
        assert (
            counters["enumeration.x86.bound3.candidates"]
            + counters["enumeration.x86.bound2.candidates"]
            == legacy.candidates_examined
        )
        # Replayed shards still report their per-shard counters.
        per_shard: dict[str, int] = {}
        for name, value in counters.items():
            if name.startswith("synthesis.shard.x86."):
                field = name.rpartition(".")[2]
                per_shard[field] = per_shard.get(field, 0) + value
        assert per_shard["completions"] == legacy.candidates_examined
        assert per_shard["survivors"] >= len(legacy.forbidden)
        assert per_shard.get("chunks", 0) == 0

    def test_hit_rate_reaches_stats(self, tmp_path):
        from repro.obs import stats_snapshot

        _synth(tmp_path / "c", bound=2)
        _synth(tmp_path / "c", bound=2)
        assert stats_snapshot()["hit_rates"]["verdict_cache.shards"] == 1.0


class TestKeys:
    BASE = ("x86", 3, ("RW", "W"))

    @pytest.mark.parametrize(
        "position, other",
        [(0, "power"), (1, 4), (2, ("RW", "R"))],
        ids=["target", "bound", "signature"],
    )
    def test_every_component_changes_the_key(self, position, other):
        changed = list(self.BASE)
        changed[position] = other
        assert shard_key(*changed) != shard_key(*self.BASE)

    def test_code_digest_is_part_of_the_key(self, monkeypatch):
        before = shard_key(*self.BASE)
        monkeypatch.setattr(verdict_cache, "code_digest", lambda: "edited")
        assert shard_key(*self.BASE) != before

    def test_source_digest_tracks_every_source_file(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n")
        (package / "sub" / "m.cat").write_text("acyclic po\n")
        (package / "notes.txt").write_text("not source\n")
        first = source_digest(package)
        assert first == source_digest(package)
        (package / "notes.txt").write_text("still not source\n")
        assert source_digest(package) == first
        (package / "sub" / "m.cat").write_text("acyclic po | rf\n")
        assert source_digest(package) != first

    def test_unreadable_source_gives_no_digest(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").mkdir()  # a "source file" that cannot be read
        assert source_digest(package) is None


class TestMisses:
    def test_source_edit_misses_shards_but_verdicts_stay_warm(
        self, tmp_path, legacy, monkeypatch
    ):
        root = tmp_path / "c"
        _synth(root)
        monkeypatch.setattr(verdict_cache, "code_digest", lambda: "edited")
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["verdict_cache.shards.hits"] == 0
        assert counters["verdict_cache.shards.misses"] == _shard_count(2, 3)
        assert counters["verdict_cache.lookups"] > 0
        assert (
            counters["verdict_cache.hits"] == counters["verdict_cache.lookups"]
        )

    def test_unpinned_code_is_not_cached(self, tmp_path, legacy, monkeypatch):
        monkeypatch.setattr(verdict_cache, "code_digest", lambda: None)
        _assert_identical(legacy, _synth(tmp_path / "c"))
        assert _counters().get("verdict_cache.shards.lookups", 0) == 0
        assert not _shard_lines(tmp_path / "c")

    def test_other_bound_misses(self, tmp_path, legacy):
        root = tmp_path / "c"
        _synth(root, bound=2)
        _assert_identical(legacy, _synth(root, bound=3))
        counters = _counters()
        assert counters["verdict_cache.shards.hits"] == _shard_count(2)
        assert counters["verdict_cache.shards.misses"] == _shard_count(3)


class TestDamage:
    def test_torn_and_malformed_lines_recompute_their_shards(
        self, tmp_path, legacy
    ):
        root = tmp_path / "c"
        _synth(root)
        (segment,) = root.glob("shards-*.jsonl")
        lines = segment.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        fruitful = [
            i for i, r in enumerate(records) if r["payload"]["survivors"]
        ]
        assert len(fruitful) >= 3
        mangled, torn, undecodable = fruitful[:3]
        bad = json.loads(lines[mangled])
        bad["payload"]["survivors"] = []  # no longer adds up: skipped
        lines[mangled] = json.dumps(bad)
        bad = json.loads(lines[undecodable])
        bad["payload"]["survivors"][0] = {}  # adds up, but is no execution
        lines[undecodable] = json.dumps(bad)
        plain = next(i for i in range(len(lines)) if i not in fruitful)
        lines[plain] = "not json at all"
        # Move a survivor-bearing record to the end and tear it.
        lines.append(lines.pop(torn))
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        segment.write_text("\n".join(lines))

        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["verdict_cache.shards.misses"] == 4
        assert counters["verdict_cache.shards.appends"] == 4
        assert len(list(root.glob("shards-*.jsonl"))) == 2
        _assert_identical(legacy, _synth(root))
        assert _counters()["verdict_cache.shards.hits"] == _shard_count(2, 3)

    def test_timed_out_run_records_no_partial_shard(
        self, tmp_path, legacy, monkeypatch
    ):
        import time
        import types

        # The scheduler's clock jumps an hour ahead as the first bound-3
        # chunk runs: bound 2 finishes in time, bound 3 times out.
        skew = []
        clock = types.SimpleNamespace(
            monotonic=lambda: time.monotonic() + sum(skew)
        )
        original = scheduler.run_shard_job

        def first_bound3_chunk_overruns(job):
            if job[0] == "synth_chunk" and job[2] == 3 and not skew:
                skew.append(3600.0)
            return original(job)

        monkeypatch.setattr(scheduler, "time", clock)
        monkeypatch.setattr(
            scheduler, "run_shard_job", first_bound3_chunk_overruns
        )
        root = tmp_path / "c"
        reset_observability()
        with CheckPipeline(workers=1, cache=root, runlog=False) as p:
            partial = p.synthesis("x86", 3, time_budget=600.0)
        assert skew and not partial.complete
        # Bound 2 finished in time and was recorded; bound 3 was not.
        bound2 = {
            shard_key("x86", 2, sig)
            for sig in shard_signatures(get_config("x86"), 2)
        }
        recorded = [json.loads(line)["key"] for line in _shard_lines(root)]
        assert sorted(recorded) == sorted(bound2)
        monkeypatch.setattr(scheduler, "run_shard_job", original)
        monkeypatch.setattr(scheduler, "time", time)
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["verdict_cache.shards.hits"] == _shard_count(2)
        assert counters["verdict_cache.shards.misses"] == _shard_count(3)


class TestCheckpointAndCompaction:
    def test_checkpointed_and_cached_shard_folds_once(self, tmp_path, legacy):
        root, checkpoint = tmp_path / "c", tmp_path / "synth.jsonl"
        _assert_identical(legacy, _synth(root, checkpoint=checkpoint))
        warm = _synth(root, checkpoint=checkpoint)
        _assert_identical(legacy, warm)
        assert warm.candidates_examined == legacy.candidates_examined
        counters = _counters()
        assert counters["verdict_cache.shards.hits"] == _shard_count(2, 3)
        assert counters.get("scheduler.chunks", 0) == 0

    def test_checkpoint_resumed_shards_are_not_recorded(
        self, tmp_path, legacy
    ):
        checkpoint = tmp_path / "synth.jsonl"
        _synth(None, checkpoint=checkpoint)
        cached = _synth(tmp_path / "c", checkpoint=checkpoint)
        _assert_identical(legacy, cached)
        # Every count came back from the checkpoint, which carries no
        # code digest: nothing is recorded, not even the empty shards.
        assert not _shard_lines(tmp_path / "c")
        assert _counters()["verdict_cache.shards.misses"] == _shard_count(2, 3)

    def test_stale_checkpointed_count_is_not_recorded(
        self, tmp_path, legacy
    ):
        # A checkpoint from older code claims one shard has half the
        # completions it has now.
        signatures = list(shard_signatures(get_config("x86"), 3))
        counts = {
            sig: scheduler.run_shard_job(("synth_count", "x86", 3, sig))
            for sig in signatures
        }
        stale = max(signatures, key=lambda sig: counts[sig]["completions"])
        checkpoint = tmp_path / "synth.jsonl"
        store = CheckpointStore(checkpoint)
        store.record(
            job_digest(("synth_count", "x86", 3, stale)),
            dict(
                counts[stale], completions=counts[stale]["completions"] // 2
            ),
            kind="synth_count",
        )
        store.close()
        root = tmp_path / "c"
        _synth(root, checkpoint=checkpoint)
        recorded = {json.loads(line)["key"] for line in _shard_lines(root)}
        assert shard_key("x86", 3, stale) not in recorded
        assert len(recorded) == _shard_count(2, 3) - 1
        # Without the checkpoint, the stale shard is recomputed in full.
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["verdict_cache.shards.misses"] == 1
        assert counters["verdict_cache.shards.appends"] == 1

    def test_compaction_keeps_shard_records_servable(self, tmp_path, legacy):
        root = tmp_path / "c"
        _synth(root)
        shards = _segment_bytes(root, "shards")
        cache = VerdictCache(root, writer=True)
        cache.compact()
        cache.close()
        assert _segment_bytes(root, "shards") == shards
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["verdict_cache.shards.hits"] == _shard_count(2, 3)
        assert counters.get("verdict_cache.lookups", 0) == 0


def _worker_cache_state(_item) -> dict:
    """What a pool worker's active cache looks like (runs in the pool)."""
    cache = verdict_cache.active()
    return {
        "loaded": cache._loaded,
        "entries_id": id(cache._entries),
        "size": len(cache),
        "no_files": cache._file is None and cache._shard_file is None,
        "no_shards": cache._shards is None,
    }


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked pool workers only",
)
def test_lazily_loaded_cache_is_shared_with_forked_workers(tmp_path, legacy):
    """When one shard misses, the parent parses the verdict segments just
    before forking, so workers read the parent's entries -- the same
    dict, not a re-parse -- and see no shard records."""
    root = tmp_path / "c"
    _synth(root)
    (segment,) = root.glob("shards-*.jsonl")
    records = [json.loads(line) for line in segment.read_text().splitlines()]
    largest = max(records, key=lambda r: r["payload"]["completions"])
    segment.write_text(
        "".join(
            json.dumps(r) + "\n" for r in records if r is not largest
        )
    )
    reset_observability()
    with CheckPipeline(workers=2, cache=root, runlog=False) as p:
        _assert_identical(legacy, p.synthesis("x86", 3))
        parent = p.verdict_cache
        assert p._pool is not None and parent._loaded
        states = p.map(_worker_cache_state, range(4))
    counters = _counters()
    assert counters["verdict_cache.shards.misses"] == 1
    assert counters["verdict_cache.lookups"] > 0
    assert counters["verdict_cache.hits"] == counters["verdict_cache.lookups"]
    assert counters.get("verdict_cache.appends", 0) == 0
    for state in states:
        assert state["loaded"]
        assert state["entries_id"] == id(parent._entries)
        assert state["size"] == len(parent)
        assert state["no_files"] and state["no_shards"]
