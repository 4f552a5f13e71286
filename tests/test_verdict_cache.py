"""The disk-backed store's chunk records: hits, crash tolerance,
compaction."""

import json
import multiprocessing

import pytest

from repro.catalog import classics
from repro.harness import verdict_cache
from repro.harness.pipeline import CheckPipeline
from repro.harness.verdict_cache import (
    CHUNK,
    VerdictCache,
    code_digest,
    job_digest,
)


def _payload(pruned: int, survivors=(), start: int = 0) -> dict:
    """A well-formed chunk payload from ``start``: ``pruned``
    consistent candidates plus one candidate per survivor."""
    survivors = list(survivors)
    total = pruned + len(survivors)
    return {
        "target": "x86",
        "bound": 2,
        "sig": ["R", "W"],
        "start": start,
        "stop": start + total,
        "counters": {
            "candidates": total,
            "pruned_consistent": pruned,
            "pruned_baseline": 0,
            "pruned_nonminimal": 0,
        },
        "survivors": survivors,
    }


def _job(payload: dict) -> tuple:
    """The chunk job a payload's coordinates name."""
    return (
        CHUNK,
        payload["target"],
        payload["bound"],
        tuple(payload["sig"]),
        payload["start"],
        payload["stop"],
    )


@pytest.fixture(scope="module")
def payloads() -> dict[str, dict]:
    sb, mp = classics.sb(), classics.mp()
    return {
        "k0": _payload(3),
        "k1": _payload(0, [sb], start=10),
        "k2": _payload(5, [sb, mp], start=20),
        "k3": _payload(0, start=30),
    }


def _write(root, payloads: dict) -> None:
    cache = VerdictCache(root)
    for payload in payloads.values():
        cache.record(CHUNK, _job(payload), payload)
    cache.close()


def _served(root, payloads: dict) -> dict:
    """What a fresh open of ``root`` serves for each payload's job."""
    reader = VerdictCache(root)
    return {
        name: reader.lookup(CHUNK, _job(payload))
        for name, payload in payloads.items()
    }


class TestHits:
    def test_hit_returns_identical_verdict(self, tmp_path, payloads):
        cache = VerdictCache(tmp_path)
        for payload in payloads.values():
            cache.record(CHUNK, _job(payload), payload)
        for payload in payloads.values():
            assert cache.lookup(CHUNK, _job(payload)) == payload
        assert cache.lookup(CHUNK, _job(_payload(1, start=99))) is None
        cache.close()

    def test_cross_run_persistence(self, tmp_path, payloads):
        _write(tmp_path, payloads)
        # A fresh process-equivalent open serves every record as written.
        assert _served(tmp_path, payloads) == payloads
        (segment,) = tmp_path.glob("shards-*.jsonl")
        lines = [json.loads(line) for line in segment.read_text().splitlines()]
        assert [line["code"] for line in lines] == [code_digest()] * 4
        assert [line["key"] for line in lines] == [
            job_digest(_job(payload)) for payload in payloads.values()
        ]
        # Survivors are executions in memory and JSON on disk.
        assert lines[2]["result"]["survivors"][0]["events"]


class TestCrashTolerance:
    def test_torn_tail_is_skipped(self, tmp_path, payloads):
        _write(tmp_path, payloads)
        (segment,) = tmp_path.glob("shards-*.jsonl")
        with segment.open("a", encoding="utf-8") as f:
            f.write('{"code": "c", "key": "torn", "payl')  # killed mid-write
        assert _served(tmp_path, payloads) == payloads

    def test_corrupt_lines_are_skipped(self, tmp_path, payloads):
        _write(tmp_path, payloads)
        (segment,) = tmp_path.glob("shards-*.jsonl")
        lines = segment.read_text().splitlines()
        broken = json.loads(lines[1])
        broken["result"]["survivors"] = []  # no longer adds up
        lines[1] = json.dumps(broken)
        lines[2] = "not json at all"
        moved = json.loads(lines[3])
        moved["key"] = json.loads(lines[0])["key"]  # names another job
        extra = _payload(1, start=40)
        good = {"kind": CHUNK, "key": job_digest(_job(extra)), "result": extra}
        lines += [
            json.dumps(moved),
            json.dumps(dict(good, code="other code")),
            json.dumps(good),  # no code stamp
            json.dumps([1]),
        ]
        segment.write_text("\n".join(lines) + "\n")
        served = _served(tmp_path, dict(payloads, extra=extra))
        # Two real records lost, none invented or moved.
        assert served == {
            "k0": payloads["k0"],
            "k1": None,
            "k2": None,
            "k3": payloads["k3"],
            "extra": None,
        }

    def test_missing_directory_is_empty_cache(self, tmp_path):
        cache = VerdictCache(tmp_path / "never-created")
        assert cache.lookup(CHUNK, _job(_payload(0))) is None
        cache.close()
        assert not (tmp_path / "never-created").exists()


class TestCompaction:
    def test_compaction_merges_segments(self, tmp_path):
        expected = {}
        for generation in range(3):
            batch = {
                f"g{generation}-{i}": _payload(i, start=10 * generation + i)
                for i in range(4)
            }
            _write(tmp_path, batch)
            expected.update(batch)
        assert len(list(tmp_path.glob("shards-*.jsonl"))) == 3
        cache = VerdictCache(tmp_path)
        final = cache.compact()
        assert final is not None
        assert list(tmp_path.glob("shards-*.jsonl")) == [final]
        assert not list(tmp_path.glob("*.tmp"))
        assert _served(tmp_path, expected) == expected

    def test_compaction_is_idempotent(self, tmp_path, payloads):
        cache = VerdictCache(tmp_path)
        for payload in payloads.values():
            cache.record(CHUNK, _job(payload), payload)
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
            _write(tmp_path, {"stale": _payload(2, start=50)})
        (segment, _) = sorted(tmp_path.glob("shards-*.jsonl"))
        with segment.open("a", encoding="utf-8") as f:
            f.write('{"code": "c", "key": "torn", "payl')
        VerdictCache(tmp_path).compact()
        (final,) = tmp_path.glob("shards-*.jsonl")
        records = [json.loads(line) for line in final.read_text().splitlines()]
        assert sorted(r["key"] for r in records) == sorted(
            job_digest(_job(payload)) for payload in payloads.values()
        )
        assert {r["code"] for r in records} == {code_digest()}

    def test_close_autocompacts_fragmented_cache(self, tmp_path):
        expected = {}
        for generation in range(verdict_cache._COMPACT_SEGMENTS):
            batch = {f"x{generation}": _payload(generation, start=generation)}
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
        pipe.verdict_cache.record(CHUNK, _job(payloads["k1"]), payloads["k1"])
        assert pipe.map(_noop, range(4)) == list(range(4))
        pipe._pool.close()
        pipe._pool.join()
        pipe._pool = None
        pipe.verdict_cache.record(CHUNK, _job(payloads["k2"]), payloads["k2"])
    records = [
        json.loads(line)
        for segment in root.glob("shards-*.jsonl")
        for line in segment.read_text().splitlines()
    ]
    assert [r["key"] for r in records if r["kind"] == CHUNK] == [
        job_digest(_job(payloads[name])) for name in ("k1", "k2")
    ]
    # The mapped jobs were recorded by the parent, each exactly once.
    jobs = [r["key"] for r in records if r["kind"] == "_noop"]
    assert len(jobs) == len(set(jobs)) == 4
