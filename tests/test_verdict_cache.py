"""The disk-backed store's chunk records: hits, crash tolerance,
compaction."""

import json
import multiprocessing

import pytest

from repro.catalog import classics
from repro.fuzz.corpus import execution_to_json
from repro.harness import verdict_cache
from repro.harness.pipeline import CheckPipeline
from repro.harness.verdict_cache import CHUNK, VerdictCache, code_digest


def _payload(pruned: int, survivors=()) -> dict:
    """A well-formed chunk payload: ``pruned`` consistent candidates
    plus one candidate per survivor."""
    survivors = list(survivors)
    total = pruned + len(survivors)
    return {
        "target": "x86",
        "bound": 2,
        "sig": ["R", "W"],
        "start": 0,
        "stop": total,
        "counters": {
            "candidates": total,
            "pruned_consistent": pruned,
            "pruned_baseline": 0,
            "pruned_nonminimal": 0,
        },
        "survivors": survivors,
    }


@pytest.fixture(scope="module")
def payloads() -> dict[str, dict]:
    sb = execution_to_json(classics.sb())
    mp = execution_to_json(classics.mp())
    return {
        "k0": _payload(3),
        "k1": _payload(0, [sb]),
        "k2": _payload(5, [sb, mp]),
        "k3": _payload(0),
    }


def _write(root, payloads: dict) -> None:
    cache = VerdictCache(root, writer=True)
    for key, payload in payloads.items():
        cache.record(CHUNK, key, payload)
    cache.close()


def _served(root, keys) -> dict:
    reader = VerdictCache(root)
    return {key: reader.lookup(CHUNK, key) for key in keys}


class TestHits:
    def test_hit_returns_identical_verdict(self, tmp_path, payloads):
        cache = VerdictCache(tmp_path, writer=True)
        for key, payload in payloads.items():
            cache.record(CHUNK, key, payload)
        for key, payload in payloads.items():
            assert cache.lookup(CHUNK, key) == payload
        assert cache.lookup(CHUNK, "absent") is None
        cache.close()

    def test_cross_run_persistence(self, tmp_path, payloads):
        _write(tmp_path, payloads)
        # A fresh process-equivalent open serves every record as written.
        assert _served(tmp_path, payloads) == payloads
        (segment,) = tmp_path.glob("shards-*.jsonl")
        lines = [json.loads(line) for line in segment.read_text().splitlines()]
        assert [line["code"] for line in lines] == [code_digest()] * 4


class TestCrashTolerance:
    def test_torn_tail_is_skipped(self, tmp_path, payloads):
        _write(tmp_path, payloads)
        (segment,) = tmp_path.glob("shards-*.jsonl")
        with segment.open("a", encoding="utf-8") as f:
            f.write('{"code": "c", "key": "torn", "payl')  # killed mid-write
        served = _served(tmp_path, [*payloads, "torn"])
        assert served.pop("torn") is None
        assert served == payloads

    def test_corrupt_lines_are_skipped(self, tmp_path, payloads):
        _write(tmp_path, payloads)
        (segment,) = tmp_path.glob("shards-*.jsonl")
        lines = segment.read_text().splitlines()
        broken = json.loads(lines[1])
        broken["result"]["survivors"] = []  # no longer adds up
        lines[1] = json.dumps(broken)
        lines[2] = "not json at all"
        good = {"kind": CHUNK, "key": "extra", "result": _payload(1)}
        lines += [
            json.dumps({"code": code_digest(), "kind": CHUNK, "key": "bare"}),
            json.dumps(dict(good, code="other code")),
            json.dumps(good),  # no code stamp
            json.dumps([1]),
        ]
        segment.write_text("\n".join(lines) + "\n")
        served = _served(tmp_path, [*payloads, "bare", "extra"])
        # Two real records lost, none invented.
        assert served == {
            "k0": payloads["k0"],
            "k1": None,
            "k2": None,
            "k3": payloads["k3"],
            "bare": None,
            "extra": None,
        }

    def test_missing_directory_is_empty_cache(self, tmp_path):
        cache = VerdictCache(tmp_path / "never-created")
        assert cache.lookup(CHUNK, "k0") is None
        cache.close()
        assert not (tmp_path / "never-created").exists()


class TestCompaction:
    def test_compaction_merges_segments(self, tmp_path):
        expected = {}
        for generation in range(3):
            batch = {f"g{generation}-{i}": _payload(i) for i in range(4)}
            _write(tmp_path, batch)
            expected.update(batch)
        assert len(list(tmp_path.glob("shards-*.jsonl"))) == 3
        cache = VerdictCache(tmp_path, writer=True)
        final = cache.compact()
        assert final is not None
        assert list(tmp_path.glob("shards-*.jsonl")) == [final]
        assert not list(tmp_path.glob("*.tmp"))
        assert _served(tmp_path, expected) == expected

    def test_compaction_is_idempotent(self, tmp_path, payloads):
        cache = VerdictCache(tmp_path, writer=True)
        for key, payload in payloads.items():
            cache.record(CHUNK, key, payload)
        first = cache.compact()
        before = first.read_text()
        second = cache.compact()
        assert second == first
        assert second.read_text() == before

    def test_compaction_keeps_only_this_codes_records(
        self, tmp_path, payloads, monkeypatch
    ):
        _write(tmp_path, payloads)
        with monkeypatch.context() as edited:
            edited.setattr(verdict_cache, "code_digest", lambda: "edited")
            _write(tmp_path, {"stale": _payload(2)})
        (segment, _) = sorted(tmp_path.glob("shards-*.jsonl"))
        with segment.open("a", encoding="utf-8") as f:
            f.write('{"code": "c", "key": "torn", "payl')
        VerdictCache(tmp_path, writer=True).compact()
        (final,) = tmp_path.glob("shards-*.jsonl")
        records = [json.loads(line) for line in final.read_text().splitlines()]
        assert sorted(r["key"] for r in records) == sorted(payloads)
        assert {r["code"] for r in records} == {code_digest()}

    def test_readers_may_not_compact(self, tmp_path, payloads):
        cache = VerdictCache(tmp_path)
        with pytest.raises(RuntimeError):
            cache.compact()
        with pytest.raises(RuntimeError):
            cache.record(CHUNK, "k0", payloads["k0"])
        assert not list(tmp_path.glob("shards-*.jsonl"))

    def test_close_autocompacts_fragmented_cache(self, tmp_path):
        expected = {}
        for generation in range(verdict_cache._COMPACT_SEGMENTS):
            batch = {f"x{generation}": _payload(generation)}
            _write(tmp_path, batch)
            expected.update(batch)
        assert len(list(tmp_path.glob("shards-*.jsonl"))) == 1
        assert _served(tmp_path, expected) == expected


def _noop(item):
    return item


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked pool workers only",
)
def test_forked_workers_never_write_the_parents_shard_lines(
    tmp_path, payloads
):
    """The parent flushes its store before forking: a record buffered
    when the pool starts reaches the segment exactly once, not once
    more per worker."""
    root = tmp_path / "shards"
    with CheckPipeline(workers=2, cache=root, runlog=False) as pipe:
        pipe.verdict_cache.record(CHUNK, "k1", payloads["k1"])
        assert pipe.map(_noop, range(4)) == list(range(4))
        pipe._pool.close()
        pipe._pool.join()
        pipe._pool = None
        pipe.verdict_cache.record(CHUNK, "k2", payloads["k2"])
    records = [
        json.loads(line)
        for segment in root.glob("shards-*.jsonl")
        for line in segment.read_text().splitlines()
    ]
    assert [r["key"] for r in records if r["kind"] == CHUNK] == ["k1", "k2"]
    # The mapped jobs were recorded by the parent, each exactly once.
    jobs = [r["key"] for r in records if r["kind"] == "_noop"]
    assert len(jobs) == len(set(jobs)) == 4
