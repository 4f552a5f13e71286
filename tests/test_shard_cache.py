"""The shard store: whole shards replayed on a warm run.

A warm synthesis rerun looks every shard up before counting or
scheduling it; a hit's stored payload joins the fold like a resumed
chunk range.  The pins: the folded result is identical to the sequential
enumerator's whether shards come from disk or not; a warm run does no
verdict work at all; any change to what a shard depends on -- the code
(models included), the bound, the signature -- misses; damaged,
partial, stale or double-counted records never reach the fold; and
compaction keeps exactly the current code's whole records.
"""

import json
import multiprocessing

import pytest

from repro.enumeration import get_config, shard_signatures, synthesise
from repro.harness import scheduler, verdict_cache
from repro.harness.checkpoint import job_digest
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


def _shard_count(*bounds: int) -> int:
    config = get_config("x86")
    return sum(len(list(shard_signatures(config, n))) for n in bounds)


def _counters() -> dict:
    return REGISTRY.snapshot()["counters"]


def _synth(root, workers: int = 1, bound: int = 3):
    """One x86 synthesis through a fresh pipeline; resets the metrics
    first, so the counters afterwards describe this run alone."""
    reset_observability()
    with CheckPipeline(workers=workers, cache=root, runlog=False) as p:
        return p.synthesis("x86", bound)


def _segment_bytes(root) -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted(root.glob("shards-*.jsonl"))
    }


def _records(root) -> list[dict]:
    return [
        json.loads(line)
        for segment in sorted(root.glob("shards-*.jsonl"))
        for line in segment.read_text().splitlines()
    ]


def _shard_lines(root) -> list[str]:
    """The store's shard records, as lines."""
    return [
        json.dumps(record)
        for record in _records(root)
        if record["kind"] == "shard"
    ]


def _rewrite(root, records: list[dict]) -> None:
    """Replace the store's segments with one holding ``records``."""
    for segment in root.glob("shards-*.jsonl"):
        segment.unlink()
    root.mkdir(parents=True, exist_ok=True)
    (root / "shards-000001.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )


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
        shards_on_disk = _segment_bytes(root)
        assert shards_on_disk
        reset_observability()
        with CheckPipeline(workers=workers, cache=root, runlog=False) as p:
            _assert_identical(legacy, p.synthesis("x86", 3))
            assert p._pool is None
        counters = _counters()
        shards = _shard_count(2, 3)
        assert counters["verdict_cache.shards.lookups"] == shards
        assert counters["verdict_cache.shards.hits"] == shards
        assert counters.get("scheduler.chunks", 0) == 0
        assert counters.get("verdict_cache.shards.appends", 0) == 0
        assert _segment_bytes(root) == shards_on_disk
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
        hit_rates = stats_snapshot()["hit_rates"]
        assert hit_rates["verdict_cache.shards"] == 1.0
        assert "verdict_cache" not in hit_rates


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
    def test_source_edit_misses_every_shard(
        self, tmp_path, legacy, monkeypatch
    ):
        root = tmp_path / "c"
        _synth(root)
        monkeypatch.setattr(verdict_cache, "code_digest", lambda: "edited")
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        shards = _shard_count(2, 3)
        assert counters["verdict_cache.shards.hits"] == 0
        assert counters["verdict_cache.shards.misses"] == shards
        # Every shard was recomputed in full and recorded anew.
        assert counters["scheduler.chunks"] > 0
        assert counters["verdict_cache.shards.appends"] == shards

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
            i for i, r in enumerate(records) if r["result"]["survivors"]
        ]
        assert len(fruitful) >= 3
        mangled, torn, undecodable = fruitful[:3]
        bad = json.loads(lines[mangled])
        bad["result"]["survivors"] = []  # no longer adds up: skipped
        lines[mangled] = json.dumps(bad)
        bad = json.loads(lines[undecodable])
        bad["result"]["survivors"][0] = {}  # adds up, but is no execution
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
        # Recording them superseded their chunks: the close compacted.
        assert len(list(root.glob("shards-*.jsonl"))) == 1
        assert len(_records(root)) == _shard_count(2, 3)
        _assert_identical(legacy, _synth(root))
        assert _counters()["verdict_cache.shards.hits"] == _shard_count(2, 3)


class TestCheckpointAndCompaction:
    """Chunk and count records resume unfinished shards; compaction
    drops them once their shard is recorded."""

    def test_checkpointed_and_cached_shard_folds_once(
        self, tmp_path, legacy, monkeypatch
    ):
        # A store still holding the chunk and count records next to the
        # shard records they built (compaction never ran).
        root = tmp_path / "c"
        with monkeypatch.context() as uncompacted:
            uncompacted.setattr(VerdictCache, "compact", lambda self: None)
            _assert_identical(legacy, _synth(root))
        assert {r["kind"] for r in _records(root)} == {
            "shard",
            "synth_chunk",
            "synth_count",
        }
        warm = _synth(root)
        _assert_identical(legacy, warm)
        assert warm.candidates_examined == legacy.candidates_examined
        counters = _counters()
        assert counters["verdict_cache.shards.hits"] == _shard_count(2, 3)
        assert counters.get("scheduler.chunks", 0) == 0

    def test_checkpoint_resumed_shards_are_recorded(
        self, tmp_path, legacy, monkeypatch
    ):
        # A store of chunk and count records only: every shard's range
        # was evaluated, but no shard record was written.
        root = tmp_path / "c"
        with monkeypatch.context() as uncompacted:
            uncompacted.setattr(VerdictCache, "compact", lambda self: None)
            _synth(root)
        _rewrite(root, [r for r in _records(root) if r["kind"] != "shard"])
        cached = _synth(root)
        _assert_identical(legacy, cached)
        # Every count and chunk came back from the store, which carries
        # this code's digest: every shard is recorded without computing
        # a chunk, the empty ones included, and the records that built
        # them are compacted away.
        counters = _counters()
        shards = _shard_count(2, 3)
        assert counters["verdict_cache.shards.misses"] == shards
        assert counters.get("scheduler.chunks", 0) == 0
        assert len(_records(root)) == len(_shard_lines(root)) == shards
        _assert_identical(legacy, _synth(root))
        assert _counters()["verdict_cache.shards.hits"] == shards

    def test_stale_checkpointed_count_is_not_recorded(
        self, tmp_path, legacy
    ):
        # A count record from other code claims one shard has half the
        # completions it has now.
        signatures = list(shard_signatures(get_config("x86"), 3))
        counts = {
            sig: scheduler.run_shard_job(("synth_count", "x86", 3, sig))
            for sig in signatures
        }
        stale = max(signatures, key=lambda sig: counts[sig]["completions"])
        job = ("synth_count", "x86", 3, stale)
        record = {
            "kind": "synth_count",
            "key": job_digest(job),
            "result": dict(
                counts[stale], completions=counts[stale]["completions"] // 2
            ),
        }
        root = tmp_path / "c"
        # Stamped with this code, the record would be served ...
        _rewrite(root, [dict(record, code=verdict_cache.code_digest())])
        assert job_digest(job) in VerdictCache(root).recorded("synth_count")
        # ... but it was computed under another code digest.
        _rewrite(root, [dict(record, code="other")])
        assert not VerdictCache(root).recorded("synth_count")
        _assert_identical(legacy, _synth(root))
        recorded = {
            entry["key"]: entry["result"]
            for entry in map(json.loads, _shard_lines(root))
        }
        assert len(recorded) == _shard_count(2, 3)
        assert (
            recorded[shard_key("x86", 3, stale)]["completions"]
            == counts[stale]["completions"]
        )
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["verdict_cache.shards.hits"] == _shard_count(2, 3)
        assert counters.get("verdict_cache.shards.appends", 0) == 0

    def test_cold_run_leaves_only_shard_records(self, tmp_path, legacy):
        root = tmp_path / "c"
        _assert_identical(legacy, _synth(root, workers=2))
        records = _records(root)
        assert [r["kind"] for r in records] == ["shard"] * _shard_count(2, 3)
        assert len({r["key"] for r in records}) == len(records)

    def test_compaction_keeps_shard_records_servable(self, tmp_path, legacy):
        root = tmp_path / "c"
        _synth(root)
        cache = VerdictCache(root, writer=True)
        cache.compact()
        cache.close()
        assert len(list(root.glob("shards-*.jsonl"))) == 1
        assert len(_shard_lines(root)) == _shard_count(2, 3)
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["verdict_cache.shards.hits"] == _shard_count(2, 3)
        assert counters.get("scheduler.chunks", 0) == 0

    def test_compaction_prunes_records_of_other_code(
        self, tmp_path, legacy, monkeypatch
    ):
        root = tmp_path / "c"
        _synth(root)
        with monkeypatch.context() as edited:
            edited.setattr(verdict_cache, "code_digest", lambda: "edited")
            edited.setattr(VerdictCache, "compact", lambda self: None)
            _synth(root)
        shards = _shard_count(2, 3)
        assert len(_shard_lines(root)) == 2 * shards
        cache = VerdictCache(root, writer=True)
        cache.compact()
        cache.close()
        records = [json.loads(line) for line in _shard_lines(root)]
        assert len(records) == shards
        assert {r["code"] for r in records} == {verdict_cache.code_digest()}
        _assert_identical(legacy, _synth(root))
        assert _counters()["verdict_cache.shards.hits"] == shards

    def test_compaction_drops_a_torn_shard_line(self, tmp_path, legacy):
        root = tmp_path / "c"
        _synth(root)
        (segment,) = root.glob("shards-*.jsonl")
        lines = segment.read_text().splitlines()
        torn = json.loads(lines[-1])["key"]
        segment.write_text("\n".join(lines[:-1] + [lines[-1][:40]]))
        cache = VerdictCache(root, writer=True)
        cache.compact()
        cache.close()
        keys = [json.loads(line)["key"] for line in _shard_lines(root)]
        assert len(keys) == _shard_count(2, 3) - 1
        assert torn not in keys
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["verdict_cache.shards.misses"] == 1
        assert counters["verdict_cache.shards.appends"] == 1


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked pool workers only",
)
def test_lazily_loaded_cache_is_shared_with_forked_workers(tmp_path, legacy):
    """When one shard misses, the parent forks workers to recompute it;
    they never touch the store, so it ends with each shard recorded
    exactly once and every record servable."""
    root = tmp_path / "c"
    _synth(root)
    (segment,) = root.glob("shards-*.jsonl")
    records = [json.loads(line) for line in segment.read_text().splitlines()]
    largest = max(records, key=lambda r: r["result"]["completions"])
    segment.write_text(
        "".join(
            json.dumps(r) + "\n" for r in records if r is not largest
        )
    )
    reset_observability()
    with CheckPipeline(workers=2, cache=root, runlog=False) as p:
        _assert_identical(legacy, p.synthesis("x86", 3))
        assert p._pool is not None
    counters = _counters()
    assert counters["verdict_cache.shards.misses"] == 1
    assert counters["verdict_cache.shards.appends"] == 1
    keys = [json.loads(line)["key"] for line in _shard_lines(root)]
    assert sorted(keys) == sorted(r["key"] for r in records)
    reader = VerdictCache(root)
    assert all(reader.shard_lookup(key) is not None for key in keys)
