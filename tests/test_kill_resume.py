"""Kill/resume chaos: a ``--workers 2 --cache`` synthesis SIGKILLed at
seeded random points of its progress (after a seeded number of new
store records) -- the parent, or one of its pool workers --
resumes from the same store directory to the uncached result, leaves
one count record per shard and one record per chunk, all of which
reload clean, and a warm rerun then answers every count and chunk from
them.  A child that dies before the kill fails the test.  Damaged
resume records are recomputed, never folded.  A resumed run's
per-shard ``completions`` counters cover every candidate of the bound,
the resumed chunks included.
"""

import json
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

from repro import api
from repro.enumeration import get_config, shard_signatures
from repro.enumeration.canonical import canonical_key
from repro.harness import scheduler
from repro.harness.pipeline import CheckPipeline
from repro.harness.verdict_cache import CHUNK, COUNT, VerdictCache
from repro.obs import REGISTRY, reset_observability

SRC = Path(__file__).resolve().parent.parent / "src"

#: The child: prints ``ready`` once its pipeline is open, then, when the
#: synthesis finishes, the suites' canonical keys, in order, and on a
#: last line its counters.
CHILD = textwrap.dedent(
    """
    import json, sys
    from repro.enumeration.canonical import canonical_key
    from repro.harness.pipeline import CheckPipeline
    from repro.obs import REGISTRY

    (cache,) = sys.argv[1:]
    with CheckPipeline(workers=2, cache=cache, runlog=False) as pipeline:
        print("ready", flush=True)
        result = pipeline.synthesis("x86", 3)
    print(json.dumps([
        [repr(canonical_key(x)) for x in result.forbidden],
        [repr(canonical_key(x)) for x in result.allowed],
    ]), flush=True)
    print(json.dumps(REGISTRY.snapshot()["counters"]), flush=True)
    """
)


def _shard_totals(counters: dict) -> dict:
    """Bound → (the x86 per-shard ``completions`` summed over shard
    labels, the bound's candidate count), for bounds 2 and 3."""
    totals = {}
    for n in (2, 3):
        prefix = f"synthesis.shard.x86.b{n}."
        totals[n] = (
            sum(
                value
                for name, value in counters.items()
                if name.startswith(prefix) and name.endswith(".completions")
            ),
            counters[f"enumeration.x86.bound{n}.candidates"],
        )
    return totals


def _assert_shards_cover_candidates(counters: dict) -> None:
    for bound, (completions, candidates) in _shard_totals(counters).items():
        assert completions == candidates > 0, (bound, completions, candidates)


def _suite_keys(result) -> list:
    return [
        [repr(canonical_key(x)) for x in result.forbidden],
        [repr(canonical_key(x)) for x in result.allowed],
    ]


def _start(cache: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(cache)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    assert child.stdout.readline().strip() == "ready"
    return child


def _workers(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(token) for token in text.split()]


def _landed(cache: Path) -> int:
    """The number of whole records in the store's segments."""
    return sum(
        segment.read_bytes().count(b"\n")
        for segment in cache.glob("shards-*.jsonl")
    )


def _kill(
    child: subprocess.Popen, cache: Path, goal: int, target: str
) -> str:
    """SIGKILL ``target`` (the parent, or one worker) once the store
    holds ``goal`` records, then the rest of the process group; returns
    what was actually killed -- or, when the child exited first,
    ``"finished"`` for a clean exit and ``"crashed"`` for any other."""
    while child.poll() is None and _landed(cache) < goal:
        time.sleep(0.001)
    killed = None
    if child.poll() is None:
        workers = _workers(child.pid) if target == "worker" else []
        victim = workers[0] if workers else child.pid
        try:
            os.kill(victim, signal.SIGKILL)
            killed = "worker" if workers else "parent"
        except ProcessLookupError:
            pass  # gone already: the child is exiting on its own
        if killed == "worker":
            # The parent waits forever on the lost chunk; let it run a
            # moment longer (it may record more), then take it down too.
            time.sleep(0.2)
    if killed is None:
        child.communicate(timeout=300)
        killed = "finished" if child.returncode == 0 else "crashed"
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.communicate()
    return killed


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}").is_dir() or os.name != "posix",
    reason="needs POSIX signals and /proc",
)
def test_killed_runs_resume_to_the_uncached_suites(tmp_path):
    expected = _suite_keys(api.synthesize("x86", 3, workers=1))
    cache = tmp_path / "cache"
    rng = random.Random(16)
    killed = []
    for target in ("parent", "worker", rng.choice(["parent", "worker"])):
        # Each kill lands after a seeded number of new records: the
        # first run records 72, so its kill always lands mid-run.
        goal = _landed(cache) + rng.randint(1, 12)
        killed.append(_kill(_start(cache), cache, goal, target))
    assert "crashed" not in killed, killed
    assert killed[0] != "finished", killed

    final = _start(cache)
    out, _ = final.communicate(timeout=300)
    assert final.returncode == 0
    suites, counters = out.splitlines()
    assert json.loads(suites) == expected
    _assert_shards_cover_candidates(json.loads(counters))

    # The killed and resumed runs left one count record per shard and
    # one record per chunk; every one loads, and compaction keeps them.
    config = get_config("x86")
    shards = sum(len(list(shard_signatures(config, n))) for n in (2, 3))
    records = _records(cache)
    kinds = Counter(record["kind"] for record in records)
    assert set(kinds) == {COUNT, CHUNK}
    assert kinds[COUNT] == shards
    keys = [record["key"] for record in records]
    assert len(set(keys)) == len(keys)
    reader = VerdictCache(cache)
    assert all(r["key"] in reader.recorded(r["kind"]) for r in records)
    VerdictCache(cache).compact()
    assert sorted(record["key"] for record in _records(cache)) == sorted(keys)

    # A warm rerun answers every count and chunk from the store and
    # evaluates no chunk.
    reset_observability()
    with CheckPipeline(workers=2, cache=cache, runlog=False) as pipeline:
        assert _suite_keys(pipeline.synthesis("x86", 3)) == expected
    counters = REGISTRY.snapshot()["counters"]
    reset_observability()
    lookups = counters["pipeline.checkpoint.lookups"]
    assert counters["pipeline.checkpoint.hits"] == lookups == len(keys)
    assert counters.get("scheduler.chunks", 0) == 0
    _assert_shards_cover_candidates(counters)


def _records(root: Path) -> list[dict]:
    return [
        json.loads(line)
        for segment in sorted(root.glob("shards-*.jsonl"))
        for line in segment.read_text().splitlines()
    ]


class Killed(RuntimeError):
    """What the interrupted run below dies of."""


def _interrupted_store(root: Path, monkeypatch) -> None:
    """The store an x86 bound-3 run leaves when it dies after its first
    few bound-3 chunks: bound 2's count and chunk records, plus bound
    3's count records and those chunks' records."""
    fuse = {"chunks": 6}
    original = scheduler.run_shard_job

    def dies_midway(job):
        if job[0] == "synth_chunk" and job[2] == 3:
            if not fuse["chunks"]:
                raise Killed
            fuse["chunks"] -= 1
        return original(job)

    with monkeypatch.context() as patched:
        patched.setattr(scheduler, "run_shard_job", dies_midway)
        with pytest.raises(Killed):
            with CheckPipeline(workers=1, cache=root, runlog=False) as p:
                p.synthesis("x86", 3)


def test_resumed_chunks_reach_the_shard_metrics(tmp_path, monkeypatch):
    """The chunks a resumed run folds from an interrupted run's records
    add to their shards' ``completions`` and ``survivors`` like the
    chunks it evaluates, but not to the shards' timers."""
    root = tmp_path / "cache"
    _interrupted_store(root, monkeypatch)
    resumed = [
        r["result"]
        for r in _records(root)
        if r["kind"] == CHUNK and r["result"]["bound"] == 3
    ]
    assert len(resumed) == 6

    reset_observability()
    with CheckPipeline(workers=1, cache=root, runlog=False) as pipeline:
        pipeline.synthesis("x86", 3)
    snapshot = REGISTRY.snapshot()
    reset_observability()
    _assert_shards_cover_candidates(snapshot["counters"])
    timed = sum(
        timer["count"]
        for name, timer in snapshot["timers"].items()
        if name.startswith("synthesis.shard.x86.")
    )
    assert timed == snapshot["counters"]["scheduler.chunks"] > 0


def _drop_start(chunk: dict) -> None:
    del chunk["start"]


def _empty_counters(chunk: dict) -> None:
    chunk["counters"] = {}


def _junk_survivor(chunk: dict) -> None:
    # Still adds up: only the survivor itself is damaged.
    chunk["counters"]["pruned_consistent"] -= 1
    chunk["survivors"].insert(0, {"junk": 1})


def _other_shard(chunk: dict) -> None:
    # Still loads: only the coordinates no longer match the chunk's key.
    chunk["sig"] = next(
        list(sig)
        for sig in shard_signatures(get_config("x86"), chunk["bound"])
        if list(sig) != chunk["sig"]
    )


def _count_without_completions(count: dict) -> None:
    count.clear()
    count["skeletons"] = 1


@pytest.mark.parametrize(
    "kind, damage",
    [
        ("synth_chunk", _drop_start),
        ("synth_chunk", _empty_counters),
        ("synth_chunk", _junk_survivor),
        ("synth_chunk", _other_shard),
        ("synth_count", _count_without_completions),
    ],
    ids=[
        "chunk-without-start",
        "chunk-empty-counters",
        "chunk-junk-survivor",
        "chunk-other-shard",
        "count-without-completions",
    ],
)
def test_damaged_resume_records_are_recomputed(
    tmp_path, monkeypatch, kind, damage
):
    """A resume record that no longer describes its work costs that
    work a recomputation, never a crash or a wrong suite."""
    expected = _suite_keys(api.synthesize("x86", 3, workers=1))
    root = tmp_path / "cache"
    _interrupted_store(root, monkeypatch)
    (segment,) = root.glob("shards-*.jsonl")
    records = _records(root)
    victim = next(
        r
        for r in records
        if r["kind"] == kind
        and r["result"].get("counters", {}).get("pruned_consistent", 1)
    )
    damage(victim["result"])
    segment.write_text("".join(json.dumps(r) + "\n" for r in records))

    reset_observability()
    with CheckPipeline(workers=1, cache=root, runlog=False) as pipeline:
        assert _suite_keys(pipeline.synthesis("x86", 3)) == expected
    counters = REGISTRY.snapshot()["counters"]
    reset_observability()
    if kind == COUNT:
        # One count job ran; every other job run is a chunk.
        jobs = counters["pipeline.jobs.completed"]
        assert jobs - counters["scheduler.chunks"] == 1
    assert counters["scheduler.chunks"] > 0
