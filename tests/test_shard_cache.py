"""The store on a warm run: every shard replayed from its count and
chunk records.

A warm synthesis rerun answers each shard's count job through
``CheckPipeline.map`` and looks each of its chunks up by job digest,
the same path a resume takes.  The pins: the folded result is identical
to the sequential enumerator's whether chunks come from disk or not; a
warm run does no verdict work at all; any change to what a record
depends on -- the code (models included), the bound, the signature --
misses; damaged, partial, stale or double-counted records never reach
the fold; and compaction keeps exactly the current code's records.
"""

import json
import multiprocessing
from collections import Counter

import pytest

from repro.enumeration import get_config, shard_signatures, synthesise
from repro.fuzz import corpus
from repro.harness import scheduler, verdict_cache
from repro.harness.pipeline import CheckPipeline
from repro.harness.table1 import run_table1
from repro.harness.verdict_cache import (
    CHUNK,
    COUNT,
    VerdictCache,
    job_digest,
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


def _kinds(root) -> Counter:
    return Counter(record["kind"] for record in _records(root))


def _rewrite(root, records: list[dict]) -> None:
    """Replace the store's segments with one holding ``records``."""
    for segment in root.glob("shards-*.jsonl"):
        segment.unlink()
    root.mkdir(parents=True, exist_ok=True)
    (root / "shards-000001.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )


def _assert_all_hit(counters: dict, lookups: int) -> None:
    """Every lookup of a run hit and nothing ran or was recorded."""
    assert counters["pipeline.checkpoint.lookups"] == lookups > 0
    assert counters["pipeline.checkpoint.hits"] == lookups
    assert counters.get("scheduler.chunks", 0) == 0
    assert counters.get("pipeline.jobs.completed", 0) == 0
    assert counters.get("pipeline.checkpoint.records", 0) == 0


class TestWarmRuns:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_warm_and_uncached_match_legacy(
        self, tmp_path, legacy, workers
    ):
        root = tmp_path / "c"
        _assert_identical(legacy, _synth(root, workers))
        kinds = _kinds(root)
        assert kinds[COUNT] == _shard_count(2, 3)
        assert kinds[CHUNK] == _counters()["scheduler.chunks"] > 0
        records = _counters()["pipeline.checkpoint.records"]
        assert records == sum(kinds.values())
        _assert_identical(legacy, _synth(root, workers))
        _assert_all_hit(_counters(), len(_records(root)))
        _assert_identical(legacy, _synth(None, workers))
        assert _counters().get("pipeline.checkpoint.lookups", 0) == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_run_does_no_verdict_work(self, tmp_path, legacy, workers):
        root = tmp_path / "c"
        _synth(root, workers)
        on_disk = _segment_bytes(root)
        assert on_disk
        reset_observability()
        with CheckPipeline(workers=workers, cache=root, runlog=False) as p:
            _assert_identical(legacy, p.synthesis("x86", 3))
            assert p._pool is None
        counters = _counters()
        _assert_all_hit(counters, len(_records(root)))
        assert _segment_bytes(root) == on_disk
        assert (
            counters["enumeration.x86.bound3.candidates"]
            + counters["enumeration.x86.bound2.candidates"]
            == legacy.candidates_examined
        )
        # Replayed chunks still report their per-shard counters.
        per_shard: dict[str, int] = {}
        for name, value in counters.items():
            if name.startswith("synthesis.shard.x86."):
                field = name.rpartition(".")[2]
                per_shard[field] = per_shard.get(field, 0) + value
        assert per_shard["completions"] == legacy.candidates_examined
        assert per_shard["survivors"] >= len(legacy.forbidden)
        assert per_shard.get("chunks", 0) == 0

    def test_survivors_are_decoded_once_at_load(self, tmp_path, monkeypatch):
        # Survivors travel as executions; only loading a chunk record
        # decodes its survivors, once each.
        decoded = []
        decode = corpus.execution_from_json

        def counting(data):
            decoded.append(data)
            return decode(data)

        monkeypatch.setattr(corpus, "execution_from_json", counting)
        _synth(None, workers=2, bound=3)
        root = tmp_path / "c"
        _synth(root, workers=2, bound=4)
        assert decoded == []
        stored = sum(
            len(r["result"]["survivors"])
            for r in _records(root)
            if r["kind"] == CHUNK
        )
        assert stored == 43
        _synth(root, workers=2, bound=4)
        assert len(decoded) == stored

    def test_hit_rate_reaches_stats(self, tmp_path):
        from repro.obs import stats_snapshot

        _synth(tmp_path / "c", bound=2)
        _synth(tmp_path / "c", bound=2)
        hit_rates = stats_snapshot()["hit_rates"]
        assert hit_rates["pipeline.checkpoint"] == 1.0
        assert "verdict_cache" not in hit_rates

    def test_every_job_is_one_lookup(self, tmp_path):
        # Table 1 runs count and chunk jobs for the synthesis and one
        # validation job per test through map: each is one lookup.
        root = tmp_path / "c"
        for run in ("cold", "warm"):
            reset_observability()
            run_table1("x86", 3, workers=1, cache=root)
            counters = _counters()
            lookups = counters["pipeline.checkpoint.lookups"]
            assert lookups == (
                counters.get("pipeline.checkpoint.hits", 0)
                + counters.get("pipeline.checkpoint.misses", 0)
            )
        kinds = _kinds(root)
        assert kinds[COUNT] == _shard_count(2, 3)
        assert kinds[CHUNK] > 0 and kinds["observable"] > 0
        assert lookups == sum(kinds.values()) == len(_records(root))
        _assert_all_hit(counters, lookups)


class TestKeys:
    BASE = ("x86", 3, ("RW", "W"))

    @staticmethod
    def _keys(target, bound, signature) -> tuple[str, str]:
        """The record keys of a shard's count job and first chunk."""
        return (
            job_digest(("synth_count", target, bound, signature)),
            job_digest(
                ("synth_chunk", target, bound, signature, 0, scheduler.CHUNK)
            ),
        )

    @pytest.mark.parametrize(
        "position, other",
        [(0, "power"), (1, 4), (2, ("RW", "R"))],
        ids=["target", "bound", "signature"],
    )
    def test_every_component_changes_the_key(self, position, other):
        changed = list(self.BASE)
        changed[position] = other
        base, moved = self._keys(*self.BASE), self._keys(*changed)
        assert not set(base) & set(moved)

    def test_code_digest_is_part_of_the_key(self, tmp_path, monkeypatch):
        # Only records stamped with this code's digest are served.
        job = ("synth_count", *self.BASE)
        store = VerdictCache(tmp_path)
        store.record(COUNT, job, scheduler.run_shard_job(job))
        store.close()
        assert VerdictCache(tmp_path).lookup(COUNT, job) is not None
        monkeypatch.setattr(verdict_cache, "code_digest", lambda: "edited")
        assert VerdictCache(tmp_path).lookup(COUNT, job) is None

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
        recorded = len(_records(root))
        monkeypatch.setattr(verdict_cache, "code_digest", lambda: "edited")
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters.get("pipeline.checkpoint.hits", 0) == 0
        assert counters["pipeline.checkpoint.misses"] == recorded
        # Every shard was recomputed in full and recorded anew.
        assert counters["scheduler.chunks"] == _kinds(root)[CHUNK] // 2
        assert counters["pipeline.checkpoint.records"] == recorded

    def test_unpinned_code_is_not_cached(self, tmp_path, legacy, monkeypatch):
        monkeypatch.setattr(verdict_cache, "code_digest", lambda: None)
        _assert_identical(legacy, _synth(tmp_path / "c"))
        assert _counters().get("pipeline.checkpoint.hits", 0) == 0
        assert _counters().get("pipeline.checkpoint.records", 0) == 0
        assert not _records(tmp_path / "c")

    def test_other_bound_misses(self, tmp_path, legacy):
        root = tmp_path / "c"
        _synth(root, bound=2)
        bound2 = len(_records(root))
        _assert_identical(legacy, _synth(root, bound=3))
        counters = _counters()
        assert counters["pipeline.checkpoint.hits"] == bound2
        assert counters["pipeline.checkpoint.misses"] == (
            len(_records(root)) - bound2
        )


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
            i
            for i, r in enumerate(records)
            if r["kind"] == CHUNK and r["result"]["survivors"]
        ]
        assert len(fruitful) >= 3
        mangled, torn, undecodable = fruitful[:3]
        bad = json.loads(lines[mangled])
        bad["result"]["survivors"] = []  # no longer adds up: skipped
        lines[mangled] = json.dumps(bad)
        bad = json.loads(lines[undecodable])
        bad["result"]["survivors"][0] = {}  # adds up, but is no execution
        lines[undecodable] = json.dumps(bad)
        plain = next(i for i, r in enumerate(records) if r["kind"] == COUNT)
        lines[plain] = "not json at all"
        # Move a survivor-bearing record to the end and tear it.
        lines.append(lines.pop(torn))
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        segment.write_text("\n".join(lines))

        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["pipeline.checkpoint.misses"] == 4
        assert counters["pipeline.checkpoint.records"] == 4
        # The lost count's chunks were still found: only three ran.
        assert counters["scheduler.chunks"] == 3
        assert counters["pipeline.jobs.completed"] == 4
        _assert_identical(legacy, _synth(root))
        _assert_all_hit(_counters(), len(records))

        # Two bound-3 chunk records with their signatures swapped: each
        # names another chunk than its key, so neither loads, and their
        # recomputations replace them.
        first, second = [
            r
            for r in records
            if r["kind"] == CHUNK and r["result"]["bound"] == 3
        ][:2]
        assert first["result"]["sig"] != second["result"]["sig"]
        damaged = [
            dict(r, result=dict(r["result"], sig=other["result"]["sig"]))
            for r, other in ((first, second), (second, first))
        ]
        kept = [r for r in records if r not in (first, second)]
        _rewrite(root, kept + damaged)
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["pipeline.checkpoint.misses"] == 2
        assert counters["pipeline.checkpoint.records"] == 2
        assert counters["scheduler.chunks"] == 2
        _assert_identical(legacy, _synth(root))
        _assert_all_hit(_counters(), len(records))


class TestCheckpointAndCompaction:
    """Count and chunk records resume unfinished shards and replay
    finished ones; compaction keeps them all."""

    def test_checkpointed_and_cached_shard_folds_once(self, tmp_path, legacy):
        # A store holding every record twice, in two segments.
        root = tmp_path / "c"
        _assert_identical(legacy, _synth(root))
        records = _records(root)
        (root / "shards-000002.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        warm = _synth(root)
        _assert_identical(legacy, warm)
        assert warm.candidates_examined == legacy.candidates_examined
        _assert_all_hit(_counters(), len(records))

    def test_checkpoint_resumed_shards_are_recorded(self, tmp_path, legacy):
        # A store missing every other chunk record: a run killed
        # midway.  The resume runs exactly the missing chunks.
        root = tmp_path / "c"
        _synth(root)
        records = _records(root)
        chunks = [r for r in records if r["kind"] == CHUNK]
        lost = chunks[::2]
        _rewrite(root, [r for r in records if r not in lost])
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["scheduler.chunks"] == len(lost)
        assert counters["pipeline.checkpoint.misses"] == len(lost)
        assert counters["pipeline.checkpoint.records"] == len(lost)
        assert sorted(r["key"] for r in _records(root)) == sorted(
            r["key"] for r in records
        )
        _assert_identical(legacy, _synth(root))
        _assert_all_hit(_counters(), len(records))

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
            "kind": COUNT,
            "key": job_digest(job),
            "result": dict(
                counts[stale], completions=counts[stale]["completions"] // 2
            ),
        }
        root = tmp_path / "c"
        # Stamped with this code, the record would be served ...
        _rewrite(root, [dict(record, code=verdict_cache.code_digest())])
        assert job_digest(job) in VerdictCache(root).recorded(COUNT)
        # ... but it was computed under another code digest.
        _rewrite(root, [dict(record, code="other")])
        assert not VerdictCache(root).recorded(COUNT)
        _assert_identical(legacy, _synth(root))
        recorded = VerdictCache(root).recorded(COUNT)
        assert len(recorded) == _shard_count(2, 3)
        assert recorded[job_digest(job)] == counts[stale]
        _assert_identical(legacy, _synth(root))
        _assert_all_hit(_counters(), len(_records(root)) - 1)

    def test_cold_run_leaves_one_count_record_per_shard_and_one_record_per_chunk(
        self, tmp_path
    ):
        root = tmp_path / "c"
        result = _synth(root, workers=2, bound=4)
        assert len(result.forbidden) == 26
        assert len(result.allowed) == 109
        assert result.candidates_examined == 150_823
        records = _records(root)
        assert Counter(r["kind"] for r in records) == {COUNT: 144, CHUNK: 145}
        assert _counters()["scheduler.chunks"] == 145
        assert len({r["key"] for r in records}) == len(records)

    def test_compaction_keeps_every_record_servable(self, tmp_path, legacy):
        root = tmp_path / "c"
        _synth(root)
        before = sorted(json.dumps(r, sort_keys=True) for r in _records(root))
        cache = VerdictCache(root)
        cache.compact()
        cache.close()
        assert len(list(root.glob("shards-*.jsonl"))) == 1
        after = sorted(json.dumps(r, sort_keys=True) for r in _records(root))
        assert after == before
        _assert_identical(legacy, _synth(root))
        _assert_all_hit(_counters(), len(before))

    def test_compaction_prunes_records_of_other_code(
        self, tmp_path, legacy, monkeypatch
    ):
        root = tmp_path / "c"
        _synth(root)
        ours = len(_records(root))
        with monkeypatch.context() as edited:
            edited.setattr(verdict_cache, "code_digest", lambda: "edited")
            _synth(root)
        assert len(_records(root)) == 2 * ours
        cache = VerdictCache(root)
        cache.compact()
        cache.close()
        records = _records(root)
        assert len(records) == ours
        assert {r["code"] for r in records} == {verdict_cache.code_digest()}
        _assert_identical(legacy, _synth(root))
        _assert_all_hit(_counters(), ours)

    def test_compaction_drops_a_torn_shard_line(self, tmp_path, legacy):
        root = tmp_path / "c"
        _synth(root)
        (segment,) = root.glob("shards-*.jsonl")
        lines = segment.read_text().splitlines()
        chunk = next(
            i
            for i, line in enumerate(lines)
            if json.loads(line)["kind"] == CHUNK
        )
        lines.append(lines.pop(chunk))
        torn = json.loads(lines[-1])["key"]
        segment.write_text("\n".join(lines[:-1] + [lines[-1][:40]]))
        cache = VerdictCache(root)
        cache.compact()
        cache.close()
        keys = [r["key"] for r in _records(root)]
        assert len(keys) == len(lines) - 1
        assert torn not in keys
        _assert_identical(legacy, _synth(root))
        counters = _counters()
        assert counters["pipeline.checkpoint.misses"] == 1
        assert counters["pipeline.checkpoint.records"] == 1
        assert counters["scheduler.chunks"] == 1


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked pool workers only",
)
def test_lazily_loaded_cache_is_shared_with_forked_workers(tmp_path, legacy):
    """When one chunk misses, the parent forks workers to recompute it;
    they never touch the store, so it ends with each job recorded
    exactly once and every record servable."""
    root = tmp_path / "c"
    _synth(root)
    (segment,) = root.glob("shards-*.jsonl")
    records = [json.loads(line) for line in segment.read_text().splitlines()]
    largest = max(
        (r for r in records if r["kind"] == CHUNK),
        key=lambda r: r["result"]["stop"] - r["result"]["start"],
    )
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
    assert counters["pipeline.checkpoint.misses"] == 1
    assert counters["pipeline.checkpoint.records"] == 1
    assert counters["scheduler.chunks"] == 1
    after = _records(root)
    assert sorted(r["key"] for r in after) == sorted(r["key"] for r in records)
    reader = VerdictCache(root)
    assert all(r["key"] in reader.recorded(r["kind"]) for r in after)
