"""The disk-backed verdict cache: hits, crash tolerance, compaction."""

import json
import multiprocessing

import pytest

from repro.enumeration import enumerate_executions, get_config
from repro.harness import verdict_cache
from repro.harness.pipeline import CheckPipeline
from repro.harness.verdict_cache import VerdictCache, execution_digest
from repro.ir import model_digest
from repro.models import get_model


@pytest.fixture(scope="module")
def executions():
    return list(enumerate_executions(get_config("x86"), 2))


@pytest.fixture(scope="module")
def x86tm():
    return get_model("x86tm")


@pytest.fixture(autouse=True)
def no_active_cache():
    yield
    verdict_cache.deactivate()


class TestHits:
    def test_hit_returns_identical_verdict(self, tmp_path, executions, x86tm):
        cache = VerdictCache(tmp_path, writer=True)
        digest = model_digest(x86tm)
        for x in executions:
            verdict = x86tm.consistent(x)
            cache.record(digest, execution_digest(x), "consistent", verdict)
        for x in executions:
            hit, verdict = cache.lookup(
                digest, execution_digest(x), "consistent"
            )
            assert hit
            assert verdict == x86tm.consistent(x)
        cache.close()

    def test_cross_run_persistence(self, tmp_path, executions, x86tm):
        digest = model_digest(x86tm)
        writer = VerdictCache(tmp_path, writer=True)
        for x in executions:
            writer.record(
                digest, execution_digest(x), "consistent", x86tm.consistent(x)
            )
        writer.close()
        # A fresh process-equivalent open sees every verdict.
        reader = VerdictCache(tmp_path)
        assert reader.loaded == len(writer)
        for x in executions:
            hit, verdict = reader.lookup(
                digest, execution_digest(x), "consistent"
            )
            assert hit and verdict == x86tm.consistent(x)

    def test_isomorphic_executions_share_an_entry(self, executions):
        # The digest hashes the canonical form, so at least two of the
        # raw 2-event executions collide onto one canonical key only if
        # they are isomorphic -- and identical executions always do.
        assert execution_digest(executions[0]) == execution_digest(
            executions[0]
        )

    def test_kinds_are_separate_keys(self, tmp_path, executions):
        cache = VerdictCache(tmp_path, writer=True)
        xd = execution_digest(executions[0])
        cache.record("m", xd, "consistent", False)
        cache.record("m", xd, "violated", ["TxnOrder"])
        assert cache.lookup("m", xd, "consistent") == (True, False)
        assert cache.lookup("m", xd, "violated") == (True, ["TxnOrder"])
        cache.close()


class TestCrashTolerance:
    def _write_some(self, root, n=5):
        cache = VerdictCache(root, writer=True)
        for i in range(n):
            cache.record("m", f"x{i}", "consistent", i % 2 == 0)
        cache.close()
        return cache

    def test_torn_tail_is_skipped(self, tmp_path):
        self._write_some(tmp_path)
        segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
        with segment.open("a", encoding="utf-8") as f:
            f.write('{"m": "m", "x": "torn", "k": "consi')  # killed mid-write
        reloaded = VerdictCache(tmp_path)
        assert reloaded.loaded == 5
        assert reloaded.lookup("m", "torn", "consistent") == (False, None)

    def test_corrupt_lines_are_skipped(self, tmp_path):
        self._write_some(tmp_path)
        segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
        lines = segment.read_text().splitlines()
        lines[2] = "not json at all"
        lines.insert(0, json.dumps({"m": "m"}))  # missing keys
        lines.insert(0, json.dumps({"m": "m", "x": "x", "k": "bogus", "v": 1}))
        segment.write_text("\n".join(lines) + "\n")
        reloaded = VerdictCache(tmp_path)
        assert reloaded.loaded == 4  # one real record lost, none invented
        assert reloaded.lookup("m", "x0", "consistent") == (True, True)

    def test_missing_directory_is_empty_cache(self, tmp_path):
        cache = VerdictCache(tmp_path / "never-created")
        assert len(cache) == 0


class TestCompaction:
    def test_compaction_merges_segments(self, tmp_path):
        for generation in range(3):
            cache = VerdictCache(tmp_path, writer=True)
            for i in range(4):
                cache.record("m", f"g{generation}-x{i}", "consistent", True)
            cache.close()
        assert len(list(tmp_path.glob("segment-*.jsonl"))) == 3
        cache = VerdictCache(tmp_path, writer=True)
        final = cache.compact()
        assert final is not None
        assert list(tmp_path.glob("segment-*.jsonl")) == [final]
        assert VerdictCache(tmp_path).loaded == 12

    def test_compaction_is_idempotent(self, tmp_path):
        cache = VerdictCache(tmp_path, writer=True)
        for i in range(6):
            cache.record("m", f"x{i}", "consistent", bool(i % 2))
        first = cache.compact()
        before = first.read_text()
        second = cache.compact()
        assert second == first
        assert second.read_text() == before

    def test_readers_may_not_compact(self, tmp_path):
        cache = VerdictCache(tmp_path)
        with pytest.raises(RuntimeError):
            cache.compact()

    def test_close_autocompacts_fragmented_cache(self, tmp_path):
        for generation in range(verdict_cache._COMPACT_SEGMENTS):
            cache = VerdictCache(tmp_path, writer=True)
            cache.record("m", f"x{generation}", "consistent", True)
            cache.close()
        assert len(list(tmp_path.glob("segment-*.jsonl"))) == 1
        assert (
            VerdictCache(tmp_path).loaded == verdict_cache._COMPACT_SEGMENTS
        )


class TestWorkerProtocol:
    def test_nonwriter_records_go_to_pending(self, tmp_path):
        cache = VerdictCache(tmp_path)
        cache.record("m", "x", "consistent", True)
        assert not list(tmp_path.glob("segment-*.jsonl"))
        shipped = cache.flush_pending()
        assert shipped == [
            {"m": "m", "x": "x", "k": "consistent", "v": True}
        ]
        assert cache.flush_pending() == []

    def test_parent_absorbs_worker_records(self, tmp_path):
        worker = VerdictCache(tmp_path / "w")  # reader: nothing on disk
        worker.record("m", "x", "consistent", False)
        parent = VerdictCache(tmp_path / "p", writer=True)
        parent.absorb(worker.flush_pending())
        parent.absorb([{"bad": "record"}])  # tolerated, skipped
        parent.close()
        assert VerdictCache(tmp_path / "p").lookup(
            "m", "x", "consistent"
        ) == (True, False)


def _worker_cache_state(_item) -> dict:
    """What a pool worker's active cache looks like (runs in the pool)."""
    cache = verdict_cache.active()
    return {
        "writer": cache.writer,
        "no_file": cache._file is None,
        "entries_id": id(cache._entries),
        "hit": cache.lookup("m", "x3", "consistent"),
        "size": len(cache),
    }


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked pool workers only",
)
def test_forked_workers_reuse_the_parents_entries(tmp_path):
    """A forked worker reads the entries the parent loaded -- the same
    dict, not a re-parse -- without the parent's segment handle, and
    leaves the parent's segment bytes alone."""
    root = tmp_path / "verdicts"
    seed = VerdictCache(root, writer=True)
    for i in range(3):
        seed.record("m", f"x{i}", "consistent", True)
    seed.close()
    with CheckPipeline(workers=2, cache=root, runlog=False) as pipe:
        parent = pipe.verdict_cache
        for i in range(3, 6):  # buffered in the parent's open segment
            parent.record("m", f"x{i}", "consistent", False)
        states = pipe.map(_worker_cache_state, range(4))
        segments = sorted(root.glob("segment-*.jsonl"))
        written = {path: path.read_bytes() for path in segments}
        pipe._pool.close()
        pipe._pool.join()
        pipe._pool = None
        assert {
            path: path.read_bytes() for path in root.glob("segment-*.jsonl")
        } == written
        for state in states:
            assert state["writer"] is False
            assert state["no_file"]
            assert state["entries_id"] == id(parent._entries)
            assert state["hit"] == (True, False)
            assert state["size"] == 6
    lines = b"".join(written.values()).decode().splitlines()
    assert sorted(json.loads(line)["x"] for line in lines) == [
        f"x{i}" for i in range(6)
    ]
